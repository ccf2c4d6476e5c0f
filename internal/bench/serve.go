package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/exec"
	"tokenpicker/internal/model"
	"tokenpicker/internal/serve"
	"tokenpicker/internal/tensor"
	"tokenpicker/internal/train"
)

// ServingOptions sizes the serialized-vs-continuous-batching comparison.
type ServingOptions struct {
	Sessions  int // concurrent generation requests
	PromptLen int // shortest prompt; session i adds i*Stride tokens
	Stride    int
	MaxNew    int     // tokens generated per session
	Workers   int     // server decode workers
	BlockRows int     // KV pool granularity
	Threshold float64 // Token-Picker pruning threshold
	// HeadParallel is the per-worker intra-step head executor width used by
	// BOTH arms (the serialized baseline gets the same executor on its one
	// decoder), so the comparison isolates continuous batching.
	HeadParallel int
}

// DefaultServingOptions returns the profile used by cmd/topick-serve and the
// throughput benchmark.
func DefaultServingOptions() ServingOptions {
	return ServingOptions{
		Sessions:  12,
		PromptLen: 24,
		Stride:    6,
		MaxNew:    48,
		Workers:   4,
		BlockRows: 32,
		Threshold: 1e-3,
	}
}

// ServingResult is the outcome of one serving comparison.
//
// Throughput (tokens/s) scales with workers only up to the machine's core
// count — on a single core the two modes move the same FLOPs and the
// batched run pays a small scheduling tax. Mean time-to-first-token is the
// structural win: serialized decoding queues whole sessions behind each
// other, while the continuous batcher prefills every admitted session
// within its first scheduling rounds.
type ServingResult struct {
	Sessions      int
	TotalTokens   int64 // generated tokens across sessions
	SerialSec     float64
	BatchedSec    float64
	Speedup       float64 // serial wall / batched wall
	SerialTokSec  float64
	BatchedTokSec float64
	SerialTTFT    float64 // mean seconds from batch start to a session's first token
	BatchedTTFT   float64
	Report        serve.Report // fleet report of the batched run
	EagerRows     int64        // KV rows the seed's eager allocation would use
}

// servingPrompts builds the synthetic mixed-length traffic. Lengths are
// clamped to the held-out stream so oversized option sets degrade into
// repeated full-length prompts instead of slicing out of range.
func servingPrompts(r *train.Result, o ServingOptions) [][]int {
	prompts := make([][]int, o.Sessions)
	for i := range prompts {
		l := o.PromptLen + i*o.Stride
		if l < 1 {
			l = 1
		}
		if l >= len(r.Held) {
			l = len(r.Held) - 1
		}
		start := (i * 17) % (len(r.Held) - l)
		prompts[i] = r.Held[start : start+l]
	}
	return prompts
}

// CompareServing decodes the same mixed-length session set twice — first
// serialized on a single decoder (one request at a time, the seed repo's
// only mode), then through the continuous-batching server — and reports
// wall-clock, throughput, mean time-to-first-token, and the batched run's
// fleet statistics.
func CompareServing(r *train.Result, o ServingOptions) ServingResult {
	prompts := servingPrompts(r, o)

	// Serialized baseline: one decoder, sessions back to back.
	kernel := attention.NewTokenPicker(o.Threshold)
	dec := model.NewDecoder(r.Params, kernel)
	ex := exec.New(o.HeadParallel)
	defer ex.Close()
	dec.Exec = ex
	start := time.Now()
	var serialToks int64
	var serialTTFT float64
	for _, p := range prompts {
		dec.Reset()
		// Stop a session on ErrContextFull like the server does, so both
		// arms degrade the same way when MaxNew overruns the window.
		logits, err := dec.Prompt(p)
		if err != nil {
			continue
		}
		tok := tensor.Argmax(logits)
		serialTTFT += time.Since(start).Seconds()
		serialToks++ // the first sampled token
		for g := 1; g < o.MaxNew; g++ {
			logits, err = dec.Step(tok)
			if err != nil {
				break
			}
			tok = tensor.Argmax(logits)
			serialToks++
		}
	}
	serialSec := time.Since(start).Seconds()

	// Continuous batching: all sessions in flight at once.
	srv := serve.NewServer(r.Params, serve.Config{
		Workers:      o.Workers,
		BlockRows:    o.BlockRows,
		HeadParallel: o.HeadParallel,
		NewKernel:    func() model.Kernel { return attention.NewTokenPicker(o.Threshold) },
	})
	start = time.Now()
	streams := make([]*serve.Stream, len(prompts))
	for i, p := range prompts {
		st, err := srv.Submit(context.Background(), serve.GenerateRequest{Prompt: p, MaxTokens: o.MaxNew})
		if err != nil {
			panic(fmt.Sprintf("bench: submit: %v", err))
		}
		streams[i] = st
	}
	var batchedToks int64
	var batchedTTFT float64
	for _, st := range streams {
		res := st.Result()
		batchedToks += int64(res.Usage.GeneratedTokens)
		batchedTTFT += res.TTFT.Seconds()
	}
	batchedSec := time.Since(start).Seconds()
	srv.Close()
	rep := srv.Report()

	cfg := r.Params.Cfg
	n := float64(len(prompts))
	return ServingResult{
		Sessions:      o.Sessions,
		TotalTokens:   batchedToks,
		SerialSec:     serialSec,
		BatchedSec:    batchedSec,
		Speedup:       serialSec / batchedSec,
		SerialTokSec:  float64(serialToks) / serialSec,
		BatchedTokSec: float64(batchedToks) / batchedSec,
		SerialTTFT:    serialTTFT / n,
		BatchedTTFT:   batchedTTFT / n,
		Report:        rep,
		EagerRows:     int64(o.Sessions) * int64(cfg.MaxSeq) * int64(cfg.Layers*cfg.Heads*2),
	}
}

// ServingTable renders the comparison in the experiment-harness style.
func ServingTable(res ServingResult) *Table {
	t := &Table{
		Title:  "Serving: serialized vs continuous batching",
		Header: []string{"mode", "wall (s)", "tokens/s", "mean TTFT (s)"},
	}
	t.AddRow("serialized", fmt.Sprintf("%.3f", res.SerialSec),
		fmt.Sprintf("%.1f", res.SerialTokSec), fmt.Sprintf("%.4f", res.SerialTTFT))
	t.AddRow("continuous", fmt.Sprintf("%.3f", res.BatchedSec),
		fmt.Sprintf("%.1f", res.BatchedTokSec), fmt.Sprintf("%.4f", res.BatchedTTFT))
	t.AddNote("wall speedup %.2fx, TTFT %.1fx lower, over %d sessions (%d generated tokens)",
		res.Speedup, res.SerialTTFT/res.BatchedTTFT, res.Sessions, res.TotalTokens)
	t.AddNote("fleet pruning ratio %.2fx, total KV-transfer reduction %.2fx",
		res.Report.Attn.PruningRatio(), res.Report.Attn.TotalReduction())
	t.AddNote("KV pool: %s", res.Report.Pool)
	t.AddNote("eager allocation would back %d rows; pool backed %d (%.1fx less)",
		res.EagerRows, res.Report.Pool.AllocatedRows(),
		float64(res.EagerRows)/float64(res.Report.Pool.AllocatedRows()))
	return t
}

// BatchingOptions sizes the high-concurrency iteration-batching comparison:
// the same mixed-length fleet decoded twice through the serving engine, once
// with per-session worker dispatch and once with iteration-level batching.
type BatchingOptions struct {
	Sessions       int // concurrent requests; >= 16 exercises real batch shapes
	PromptLen      int // shortest prompt; session i adds i*Stride tokens
	Stride         int
	MaxNew         int     // tokens generated per session
	Workers        int     // worker count; batch mode uses one Workers-wide executor
	BlockRows      int     // KV pool granularity
	PromptChunk    int     // prefill chunk, both modes
	MaxBatchTokens int     // iteration token-row budget of the batched arm
	Threshold      float64 // Token-Picker pruning threshold
}

// DefaultBatchingOptions is the profile persisted to BENCH_decode.json.
func DefaultBatchingOptions() BatchingOptions {
	return BatchingOptions{
		Sessions:       16,
		PromptLen:      16,
		Stride:         7,
		MaxNew:         32,
		Workers:        4,
		BlockRows:      32,
		PromptChunk:    16,
		MaxBatchTokens: 48,
		Threshold:      1e-3,
	}
}

// BatchingResult is the outcome of one iteration-batching comparison. The
// structural quantity is Occupancy — mean token rows co-scheduled per
// iteration, the weight-streaming amortization factor — while tokens/s only
// separates the modes when cores are available (on one core both move the
// same FLOPs and the batched arm pays a small assembly tax).
type BatchingResult struct {
	Sessions      int
	TotalTokens   int64   // generated tokens per arm
	WorkerSec     float64 // wall clock, per-session worker dispatch
	BatchedSec    float64 // wall clock, iteration batching
	WorkerTokSec  float64
	BatchedTokSec float64
	WorkerTTFT50  float64 // TTFT quantiles (seconds) from the metrics digests
	WorkerTTFT95  float64
	BatchedTTFT50 float64
	BatchedTTFT95 float64
	Occupancy     float64 // mean token rows per batched iteration
	Iterations    int64   // batched iterations executed
	TokensMatch   bool    // batched tokens bit-identical to worker-mode tokens
	BatchedReport serve.Report
}

// runServingArm decodes prompts through one server config and returns the
// emitted token streams plus the timing quantities shared by both arms.
func runServingArm(r *train.Result, cfg serve.Config, prompts [][]int, maxNew int) (
	toks [][]int, wall float64, ttft50, ttft95 float64, rep serve.Report, met *serve.Metrics) {
	srv := serve.NewServer(r.Params, cfg)
	start := time.Now()
	streams := make([]*serve.Stream, len(prompts))
	for i, p := range prompts {
		st, err := srv.Submit(context.Background(), serve.GenerateRequest{Prompt: p, MaxTokens: maxNew})
		if err != nil {
			panic(fmt.Sprintf("bench: submit: %v", err))
		}
		streams[i] = st
	}
	toks = make([][]int, len(prompts))
	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func(i int, st *serve.Stream) {
			defer wg.Done()
			for ev := range st.Events() {
				toks[i] = append(toks[i], ev.Token)
			}
		}(i, st)
	}
	wg.Wait()
	wall = time.Since(start).Seconds()
	met = srv.Metrics()
	ttft50 = met.TTFT.Quantile(0.5)
	ttft95 = met.TTFT.Quantile(0.95)
	srv.Close()
	rep = srv.Report()
	return toks, wall, ttft50, ttft95, rep, met
}

// CompareIterationBatching decodes the same high-concurrency mixed-length
// fleet twice — per-session worker dispatch, then iteration-level batching
// (Config.MaxBatchTokens > 0) — and reports throughput, TTFT p50/p95, the
// batched arm's occupancy, and whether the two modes emitted identical
// tokens (they must: batching changes scheduling, never results).
func CompareIterationBatching(r *train.Result, o BatchingOptions) BatchingResult {
	prompts := servingPrompts(r, ServingOptions{
		Sessions: o.Sessions, PromptLen: o.PromptLen, Stride: o.Stride,
	})
	newKernel := func() model.Kernel { return attention.NewTokenPicker(o.Threshold) }

	workerToks, workerSec, w50, w95, _, _ := runServingArm(r, serve.Config{
		Workers:     o.Workers,
		BlockRows:   o.BlockRows,
		PromptChunk: o.PromptChunk,
		SharePrefix: true,
		NewKernel:   newKernel,
	}, prompts, o.MaxNew)

	batchToks, batchSec, b50, b95, rep, met := runServingArm(r, serve.Config{
		Workers:        o.Workers,
		BlockRows:      o.BlockRows,
		PromptChunk:    o.PromptChunk,
		MaxBatchTokens: o.MaxBatchTokens,
		SharePrefix:    true,
		NewKernel:      newKernel,
	}, prompts, o.MaxNew)

	match := len(workerToks) == len(batchToks)
	var total int64
	for i := range workerToks {
		if !match {
			break
		}
		if len(workerToks[i]) != len(batchToks[i]) {
			match = false
			break
		}
		for j := range workerToks[i] {
			if workerToks[i][j] != batchToks[i][j] {
				match = false
				break
			}
		}
		total += int64(len(batchToks[i]))
	}
	return BatchingResult{
		Sessions:      o.Sessions,
		TotalTokens:   total,
		WorkerSec:     workerSec,
		BatchedSec:    batchSec,
		WorkerTokSec:  float64(total) / workerSec,
		BatchedTokSec: float64(total) / batchSec,
		WorkerTTFT50:  w50,
		WorkerTTFT95:  w95,
		BatchedTTFT50: b50,
		BatchedTTFT95: b95,
		Occupancy:     met.BatchRows.Mean(),
		Iterations:    met.BatchIterations.Value(),
		TokensMatch:   match,
		BatchedReport: rep,
	}
}

// BatchingTable renders the iteration-batching comparison.
func BatchingTable(res BatchingResult) *Table {
	t := &Table{
		Title:  "Serving: per-session workers vs iteration-level batching",
		Header: []string{"mode", "wall (s)", "tokens/s", "TTFT p50 (s)", "TTFT p95 (s)"},
	}
	t.AddRow("per-session", fmt.Sprintf("%.3f", res.WorkerSec),
		fmt.Sprintf("%.1f", res.WorkerTokSec),
		fmt.Sprintf("%.4f", res.WorkerTTFT50), fmt.Sprintf("%.4f", res.WorkerTTFT95))
	t.AddRow("iteration-batched", fmt.Sprintf("%.3f", res.BatchedSec),
		fmt.Sprintf("%.1f", res.BatchedTokSec),
		fmt.Sprintf("%.4f", res.BatchedTTFT50), fmt.Sprintf("%.4f", res.BatchedTTFT95))
	t.AddNote("%d sessions, %d tokens; %d iterations at %.1f rows mean occupancy; tokens match: %v",
		res.Sessions, res.TotalTokens, res.Iterations, res.Occupancy, res.TokensMatch)
	return t
}
