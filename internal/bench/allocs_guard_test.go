package bench

import (
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tokenpicker/internal/exec"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/tensor"
)

// TestAttendSteadyStateZeroAllocs is the regression guard for the
// incremental-quantization and head-parallel work: once warmed up, no
// kernel's layer attention may allocate when the context is stable — under
// the serial executor and under the pool executor alike (per-slot scratch
// must be provisioned during warm-up and then reused, and Pool.Run itself
// must dispatch without garbage). Any allocation here reintroduces
// per-token garbage on the serving hot path, so the test fails hard rather
// than reporting a benchmark delta someone has to notice.
func TestAttendSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	cfg := model.TestConfig()
	params := model.NewParams(cfg, 31)
	dec := model.NewDecoder(params, nil) // exact prompt fills the KV caches
	prompt := make([]int, 96)
	for i := range prompt {
		prompt[i] = (i * 13) % cfg.VocabSize
	}
	dec.MustPrompt(prompt)
	n := dec.Len()

	d := cfg.DModel()
	rng := rand.New(rand.NewSource(33))
	q := make([]float32, d)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
	}
	out := make([]float32, d)
	slopes := make([]float32, cfg.Heads)
	keys := make([]tensor.RowSource, cfg.Heads)
	vals := make([]tensor.RowSource, cfg.Heads)
	for h := 0; h < cfg.Heads; h++ {
		slopes[h] = cfg.AlibiSlope(h)
		keys[h], vals[h] = dec.Cache(0, h)
	}

	pool := exec.NewPool(2)
	defer pool.Close()
	executors := []struct {
		name string
		ex   exec.Executor
	}{
		{"serial", exec.Serial{}},
		{"pool", pool},
	}
	for _, et := range executors {
		batch := model.AttendBatch{
			Layer:   0,
			N:       n,
			Heads:   cfg.Heads,
			HeadDim: cfg.HeadDim,
			Scale:   float32(1 / math.Sqrt(float64(cfg.HeadDim))),
			Slopes:  slopes,
			Q:       q,
			Out:     out,
			Keys:    keys,
			Vals:    vals,
			Exec:    et.ex,
		}
		// Fresh kernels per executor so each provisions its own slot count.
		for _, name := range DecodeKernels() {
			k := newDecodeKernel(name, cfg)
			attend := func() { k.AttendLayer(batch) }
			for i := 0; i < 3; i++ {
				attend() // warm up slot scratch and the quantized side-car
			}
			if allocs := testing.AllocsPerRun(100, attend); allocs != 0 {
				t.Errorf("%s/%s: steady-state AttendLayer allocates %g times per call",
					et.name, name, allocs)
			}
		}
	}

	// The same guard with the serving instrumentation live: timing a step
	// into a histogram, bumping a sharded counter, and recording a traced
	// event teed to a JSONL sink must add zero allocations on top of the
	// kernel — "observability on" may never cost per-token garbage.
	reg := obs.NewRegistry()
	stepHist := reg.Histogram("guard_step_seconds", "step latency", "", obs.DefDurationBuckets())
	genCtr := reg.Counter("guard_tokens_total", "tokens", "")
	tracer := obs.NewTracer(1 << 10)
	tracer.SetSink(obs.NewJSONLWriter(io.Discard))
	k := newDecodeKernel(DecodeKernels()[0], cfg)
	batch := model.AttendBatch{
		Layer: 0, N: n, Heads: cfg.Heads, HeadDim: cfg.HeadDim,
		Scale:  float32(1 / math.Sqrt(float64(cfg.HeadDim))),
		Slopes: slopes, Q: q, Out: out, Keys: keys, Vals: vals,
		Exec: exec.Serial{},
	}
	var step int32
	instrumented := func() {
		start := time.Now()
		k.AttendLayer(batch)
		stepHist.Observe(time.Since(start).Seconds())
		genCtr.AddSlot(1, 1)
		step++
		tracer.Record(obs.Event{
			Session: 1, Kind: obs.KindDecodeStep, Step: step, Tokens: 1,
			Rows: int32(n), Batch: 1, InUse: 4, Free: 2,
		})
	}
	for i := 0; i < 3; i++ {
		instrumented()
	}
	if allocs := testing.AllocsPerRun(100, instrumented); allocs != 0 {
		t.Errorf("instrumented decode step allocates %g times per call", allocs)
	}
}

// TestDecodeGrowingContextZeroAllocs guards the workload decoding actually
// runs: Decoder.Step over a context that grows by one row every step. Every
// buffer sized by the context length grows to power-of-two capacities
// (tensor.Grow), so a window of steps that crosses no power-of-two row count
// allocates nothing. Exact-size regrowth would allocate on every step, which
// TestAttendSteadyStateZeroAllocs cannot see: its context is fixed.
func TestDecodeGrowingContextZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	const (
		promptLen = 96
		warmTo    = 140 // past every buffer's regrowth at 128 rows
		steps     = 100 // ends at 241 rows, below the next regrowth at 256
		attempts  = 3
	)
	cfg := model.TestConfig()
	params := model.NewParams(cfg, 31)
	prompt := make([]int, promptLen)
	for i := range prompt {
		prompt[i] = (i * 13) % cfg.VocabSize
	}
	pool := exec.NewPool(2)
	defer pool.Close()
	executors := []struct {
		name string
		ex   exec.Executor
	}{
		{"serial", exec.Serial{}},
		{"pool", pool},
	}
	// window counts every allocation of steps Decoder.Steps past warmTo rows
	// on a fresh decoder. testing.AllocsPerRun would round an occasional
	// regrowth down to zero per step, so the count is exact; like
	// AllocsPerRun it runs on one P after one warm-up call.
	window := func(name string, ex exec.Executor) uint64 {
		dec := model.NewDecoder(params, newDecodeKernel(name, cfg))
		dec.Exec = ex
		dec.MustPrompt(prompt)
		step := func() { dec.MustStep((dec.Len() * 7) % cfg.VocabSize) }
		for dec.Len() < warmTo {
			step()
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		step()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, et := range executors {
		for _, name := range DecodeKernels() {
			// The runtime fills its type-assertion caches on a random draw,
			// so a window may catch one such allocation; scratch regrowth is
			// deterministic and shows in every attempt.
			fewest := uint64(math.MaxUint64)
			for a := 0; a < attempts && fewest > 0; a++ {
				fewest = min(fewest, window(name, et.ex))
			}
			if fewest != 0 {
				t.Errorf("%s/%s: %d Decoder.Steps over a growing context allocate %d times (fewest of %d attempts)",
					et.name, name, steps, fewest, attempts)
			}
		}
	}
}
