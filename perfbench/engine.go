package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/httpapi"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/serve"
	"tokenpicker/internal/train"
)

// threshold is topick-serve's default Token-Picker pruning threshold.
const threshold = 1e-3

func newKernel() statKernel { return attention.NewTokenPicker(threshold) }

// detok renders a token the way topick-serve does for the HTTP text fields.
func detok(tok int) string { return fmt.Sprintf("%d ", tok) }

// eventLog is an in-memory tracer sink: it keeps every lifecycle event for
// the per-layer analysis at the end of the run.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Record(ev obs.Event) { l.events = append(l.events, ev) }

// stack is one booted serving stack: trained params, engine, HTTP handler,
// and — in traced runs — the kernel clock and lifecycle event log.
type stack struct {
	params *model.Params
	srv    *serve.Server
	h      *httpapi.Handler
	clock  *kernelClock
	tracer *obs.Tracer
	log    *eventLog
	fit    time.Duration // training
	warm   time.Duration // serving the warm-up
	total  time.Duration // training through warm-up
	warmup phase
}

// boot pays the set-up topick-serve -listen pays — train the demo model,
// build the engine and handler — then serves the workload's warm-up. Only
// the kernel and prefix sharing are configured, as topick-serve's defaults
// do; every other engine setting is the library default. A traced stack
// also gets the lifecycle tracer and the timing kernel decorator.
func boot(ctx context.Context, w workload, in *inputs, traced bool) (*stack, error) {
	st := &stack{}
	start := time.Now()
	st.params = train.Train(demoConfig, demoOptions).Params
	st.fit = time.Since(start)

	cfg := serve.Config{
		SharePrefix: true,
		NewKernel:   func() model.Kernel { return newKernel() },
	}
	if traced {
		st.clock = &kernelClock{}
		cfg.NewKernel = timed(newKernel, st.clock)
		// Room for a window's events, so recording seldom grows the log.
		st.log = &eventLog{events: make([]obs.Event, 0, 1<<16)}
		st.tracer = obs.NewTracer(1)
		st.tracer.SetSink(st.log)
		cfg.Tracer = st.tracer
	}
	st.srv = serve.NewServer(st.params, cfg)
	st.h = httpapi.New(st.srv, httpapi.Options{Model: "topick-demo", Detok: detok})

	warmStart := time.Now()
	st.warmup = st.serveWarmup(ctx, w, in.warm)
	if err := st.quiesce(); err != nil {
		st.srv.Close()
		return nil, err
	}
	end := time.Now()
	st.warm, st.total = end.Sub(warmStart), end.Sub(start)
	if _, _, failed := st.warmup.counts(); failed > 0 {
		st.srv.Close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", failed, len(in.warm))
	}
	return st, nil
}

// serveWarmup sends the warm-up in a closed loop with nproc clients, so
// set-up time is serving time and never a wait on the open-loop schedule.
// With a system prompt, one request goes first on its own so the prompt is
// in the prefix index before anything else arrives.
func (st *stack) serveWarmup(ctx context.Context, w workload, reqs []request) phase {
	c := &client{h: st.h}
	if w.sysPrompt == 0 {
		return c.runClosed(ctx, reqs, runtime.NumCPU())
	}
	first := c.runClosed(ctx, reqs[:1], 1)
	rest := c.runClosed(ctx, reqs[1:], runtime.NumCPU())
	first.results = append(first.results, rest.results...)
	first.end = rest.end
	return first
}

// scrape reads the handler's GET /metrics into name{labels} -> value.
func (st *stack) scrape() (map[string]float64, error) {
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	w := newStreamWriter(0)
	st.h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", w.status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(w.buf.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("GET /metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// quiesce waits until no session is admitted or mid-dispatch. A client sees
// a stream end before the engine folds the session's last quantum into its
// counters; once nothing is dispatching, every counter is settled.
func (st *stack) quiesce() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := st.scrape()
		if err != nil {
			return err
		}
		if m["topick_sessions_active"] == 0 && m["topick_sessions_dispatching"] == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engine still busy 30s after the last response")
		}
		time.Sleep(time.Millisecond)
	}
}

// snapshot is the engine, kernel and process state at a window boundary.
type snapshot struct {
	rep       serve.Report
	generated float64 // topick_generated_tokens_total from GET /metrics
	decodeSum float64 // seconds in generation steps
	decodeN   int64
	prefill   float64 // seconds in prompt-chunk prefill
	iterSum   float64 // seconds in batched iterations
	rowsSum   float64 // rows over batched iterations
	iterN     int64
	kCalls    int64
	kRows     int64
	kBusy     time.Duration
	mem       runtime.MemStats
}

func (st *stack) snapshot() (snapshot, error) {
	var s snapshot
	m, err := st.scrape()
	if err != nil {
		return s, err
	}
	s.generated = m["topick_generated_tokens_total"]
	s.rep = st.srv.Report()
	met := st.srv.Metrics()
	s.decodeSum, s.decodeN = met.DecodeStep.Sum(), met.DecodeStep.Count()
	s.prefill = met.PrefillChunk.Sum()
	s.iterSum, s.iterN = met.BatchIteration.Sum(), met.BatchIteration.Count()
	s.rowsSum = met.BatchRows.Sum()
	if st.clock != nil {
		s.kCalls, s.kRows = st.clock.calls.Load(), st.clock.rows.Load()
		s.kBusy = time.Duration(st.clock.busyNs.Load())
	}
	runtime.ReadMemStats(&s.mem)
	return s, nil
}

// window is one measured window: the requests' outcomes plus the state
// before and after.
type window struct {
	phase
	before, after snapshot
	retainedMB    float64 // live heap after the window and a forced GC
}

// measureWindow sends the window on a warmed stack and snapshots around it.
func (st *stack) measureWindow(ctx context.Context, in *inputs, traced bool) (window, error) {
	var win window
	keep := make(map[int]bool, len(in.verify))
	for _, i := range in.verify {
		keep[i] = true
	}
	c := &client{h: st.h, keep: keep, spans: traced}
	var err error
	if win.before, err = st.snapshot(); err != nil {
		return win, err
	}
	win.phase = c.runOpen(ctx, in.window)
	if err := st.quiesce(); err != nil {
		return win, err
	}
	if win.after, err = st.snapshot(); err != nil {
		return win, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	win.retainedMB = float64(mem.HeapAlloc) / (1 << 20)
	return win, nil
}

// attnDelta is the attention traffic between two reports.
func attnDelta(before, after serve.Report) attention.Stats {
	a, b := after.Attn, before.Attn
	d := attention.Stats{
		Instances:      a.Instances - b.Instances,
		Tokens:         a.Tokens - b.Tokens,
		Kept:           a.Kept - b.Kept,
		KBytes:         a.KBytes - b.KBytes,
		VBytes:         a.VBytes - b.VBytes,
		BaselineKBytes: a.BaselineKBytes - b.BaselineKBytes,
		BaselineVBytes: a.BaselineVBytes - b.BaselineVBytes,
		ChunkFetches:   append([]int64(nil), a.ChunkFetches...),
	}
	for i, v := range b.ChunkFetches {
		d.ChunkFetches[i] -= v
	}
	return d
}

// kvBytesRatio is the paper's memory-access reduction over the window:
// non-pruning K+V bytes over the bytes the kernel fetched.
func kvBytesRatio(d attention.Stats) float64 {
	return ratio(float64(d.BaselineKBytes+d.BaselineVBytes), float64(d.KBytes+d.VBytes))
}
