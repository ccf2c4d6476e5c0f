package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"tokenpicker/internal/obs"
)

// ridHash is the engine's trace correlation id for an X-Request-ID: the
// FNV-1a hash serve stamps on every event of the request's session.
func ridHash(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// traceStats is what the lifecycle trace says about the window's requests.
type traceStats struct {
	queueWait  []float64 // ms from submit to first dispatch
	flushDelay []float64 // ms from the engine's first emit to its SSE flush
	batchSum   float64   // sessions mid-dispatch, summed over decode steps
	decodes    int
	peak       int // most window sessions in flight at once
}

// analyzeTrace folds the window's lifecycle events. The engine emits a
// request's first token right after the prefill chunk that completes its
// prompt, so that event's time stands for the first emit.
func analyzeTrace(st *stack, in *inputs, win *window) traceStats {
	idx := make(map[uint64]int, len(in.window))
	for i := range in.window {
		idx[ridHash(in.window[i].id)] = i
	}
	submitted := make(map[uint64]int64, len(in.window))
	emitted := make(map[uint64]bool, len(in.window))
	epoch := st.tracer.Epoch()
	var ts traceStats
	active := 0
	for _, ev := range st.log.events {
		i, ok := idx[ev.ReqID]
		if !ok {
			continue
		}
		switch ev.Kind {
		case obs.KindSubmit:
			submitted[ev.ReqID] = ev.T
			active++
			ts.peak = max(ts.peak, active)
		case obs.KindAdmitted:
			ts.queueWait = append(ts.queueWait, ms(time.Duration(ev.T-submitted[ev.ReqID])))
		case obs.KindPrefillChunk:
			r := &win.results[i]
			if int(ev.Rows) == len(in.window[i].prompt) && !emitted[ev.ReqID] && r.tokens > 0 {
				emitted[ev.ReqID] = true
				ts.flushDelay = append(ts.flushDelay, ms(r.first.Sub(epoch.Add(time.Duration(ev.T)))))
			}
		case obs.KindDecodeStep:
			ts.batchSum += float64(ev.Batch)
			ts.decodes++
		case obs.KindFinish:
			active--
		}
	}
	return ts
}

// perLayer computes the traced run's per-layer metrics. win is the traced
// window on st; plain is the untraced window of the same run, the base of
// loadgen.trace_overhead.
func perLayer(w workload, in *inputs, st *stack, win, plain *window, setup setupTimes, ver verification) map[string]metric {
	ts := analyzeTrace(st, in, win)
	b, a := win.before, win.after
	n := float64(len(win.results))
	tokens := 0
	var gaps []float64
	for i := range win.results {
		r := &win.results[i]
		tokens += r.tokens
		for k := 1; k < len(r.flushes); k++ {
			gaps = append(gaps, ms(r.flushes[k].Sub(r.flushes[k-1])))
		}
	}
	pct := func(xs []float64, q float64) float64 { v, _ := percentile(xs, q); return v }
	tpotP50 := func(win *window) float64 { return pct(latenciesOf(w, win).tpot, 0.5) }

	// The decode step is the engine's step, unless iteration batching ran:
	// then the iteration is the step, and the decode-step histogram is empty.
	stepS, stepTokens := a.decodeSum-b.decodeSum, float64(a.decodeN-b.decodeN)
	if a.iterN > b.iterN {
		stepS, stepTokens = a.iterSum-b.iterSum, a.generated-b.generated
	}
	batchMean := ratio(ts.batchSum, float64(ts.decodes))
	if a.iterN > b.iterN {
		batchMean = ratio(a.rowsSum-b.rowsSum, float64(a.iterN-b.iterN))
	}
	kBusy := (a.kBusy - b.kBusy).Seconds()
	kCalls := float64(a.kCalls - b.kCalls)
	kRows := float64(a.kRows - b.kRows)
	attn := attnDelta(b.rep, a.rep)
	var chunks int64
	for _, c := range attn.ChunkFetches {
		chunks += c
	}
	prompted := float64(a.rep.PromptTokens - b.rep.PromptTokens)
	exec := a.rep.Exec
	exec.Tasks -= b.rep.Exec.Tasks
	exec.Steals -= b.rep.Exec.Steals
	exec.BusyNs -= b.rep.Exec.BusyNs

	m := map[string]metric{
		"train.fit_s":  {setup.fit, "s"},
		"serve.warm_s": {setup.warm, "s"},

		"httpapi.flush_delay_p50_ms": {pct(ts.flushDelay, 0.5), "ms"},
		"httpapi.stream_gap_p99_ms":  {pct(gaps, 0.99), "ms"},

		"serve.queue_wait_p50_ms":      {pct(ts.queueWait, 0.5), "ms"},
		"serve.queue_wait_p90_ms":      {pct(ts.queueWait, 0.9), "ms"},
		"serve.step_us_per_token":      {1e6 * ratio(stepS, stepTokens), "us"},
		"serve.prefill_us_per_token":   {1e6 * ratio(a.prefill-b.prefill, prompted), "us"},
		"serve.batch_rows_mean":        {batchMean, "rows"},
		"serve.peak_sessions":          {float64(ts.peak), "count"},
		"serve.preemptions":            {float64(a.rep.Preempted - b.rep.Preempted), "count"},
		"serve.prefix_hit_ratio":       {ratio(float64(a.rep.Prefix.Hits-b.rep.Prefix.Hits), float64(a.rep.Prefix.Lookups-b.rep.Prefix.Lookups)), "frac"},
		"serve.prefill_tokens_per_req": {prompted / n, "tok"},
		"serve.prefix_entries":         {float64(a.rep.Prefix.Entries), "count"},
		"serve.pool_leases_per_req":    {float64(a.rep.Pool.Leases-b.rep.Pool.Leases) / n, "count"},
		"serve.pool_cow_copies":        {float64(a.rep.Pool.Copies - b.rep.Pool.Copies), "count"},

		"attention.calls":              {kCalls, "count"},
		"attention.rows":               {kRows, "count"},
		"attention.us_per_call":        {1e6 * ratio(kBusy, kCalls), "us"},
		"attention.ns_per_row":         {1e9 * ratio(kBusy, kRows), "ns"},
		"attention.decode_share":       {ratio(kBusy, stepS), "frac"},
		"attention.pruning_ratio":      {ratio(float64(attn.Tokens), float64(attn.Kept)), "x"},
		"attention.k_bytes_ratio":      {ratio(float64(attn.BaselineKBytes), float64(attn.KBytes)), "x"},
		"attention.v_bytes_ratio":      {ratio(float64(attn.BaselineVBytes), float64(attn.VBytes)), "x"},
		"attention.k_chunks_per_token": {ratio(float64(chunks), float64(attn.Tokens)), "chunks"},

		"model.non_attn_us_per_token": {1e6 * ratio(stepS-kBusy, stepTokens), "us"},

		"exec.busy_s": {float64(exec.BusyNs) / 1e9, "s"},
		"exec.tasks":  {float64(exec.Tasks), "count"},
		"exec.steals": {float64(exec.Steals), "count"},

		"process.alloc_bytes_per_token": {ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), float64(tokens)), "B"},
		"process.allocs_per_token":      {ratio(float64(a.mem.Mallocs-b.mem.Mallocs), float64(tokens)), "count"},
		"process.gc_cycles":             {float64(a.mem.NumGC - b.mem.NumGC), "count"},
		"process.gc_pause_ms":           {ms(time.Duration(a.mem.PauseTotalNs - b.mem.PauseTotalNs)), "ms"},

		"loadgen.lag_p99_ms":     {pct(win.lags, 0.99), "ms"},
		"loadgen.trace_overhead": {ratio(tpotP50(win), tpotP50(plain)), "x"},
	}
	nonOK := 0
	for i := range win.results {
		if r := &win.results[i]; r.status != http.StatusOK || r.err != "" {
			nonOK++
		}
	}
	m["httpapi.non_ok"] = metric{float64(nonOK), "count"}
	ws, wok, wf := st.warmup.counts()
	ns, nok, nf := win.counts()
	for _, p := range []struct {
		name             string
		sent, ok, failed int
	}{
		{"warmup", ws, wok, wf},
		{"window", ns, nok, nf},
		{"verify", ver.checked, ver.matched, ver.checked - ver.matched},
	} {
		m["loadgen."+p.name+".sent"] = metric{float64(p.sent), "count"}
		m["loadgen."+p.name+".succeeded"] = metric{float64(p.ok), "count"}
		m["loadgen."+p.name+".failed"] = metric{float64(p.failed), "count"}
	}
	return m
}

// clientSpan is one request as the load generator saw it, in nanoseconds
// since the engine tracer's epoch so it lines up with the engine's events.
type clientSpan struct {
	RequestID string  `json:"rid"`
	Due       int64   `json:"due_ns"`
	Sent      int64   `json:"sent_ns"`
	Done      int64   `json:"done_ns"`
	Status    int     `json:"status"`
	Flushes   []int64 `json:"flush_ns"`
}

// writeTrace writes the traced window's spans at the end of the run: the
// engine's lifecycle events as JSONL (the topick-serve -trace-out format,
// replayable by topick-sim -trace) to prefix+".engine.jsonl", and one client
// span per window request to prefix+".client.jsonl". Both share the request
// id: the engine event's rid is the FNV-1a hash of the span's rid.
func writeTrace(prefix string, st *stack, in *inputs, win *window) error {
	if err := os.MkdirAll(filepath.Dir(prefix), 0o755); err != nil {
		return err
	}
	epoch := st.tracer.Epoch()
	since := func(t time.Time) int64 { return int64(t.Sub(epoch)) }
	return errors.Join(
		writeFile(prefix+".engine.jsonl", func(w io.Writer) error {
			jw := obs.NewJSONLWriter(w)
			for _, ev := range st.log.events {
				jw.Record(ev)
			}
			return jw.Flush()
		}),
		writeFile(prefix+".client.jsonl", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			for i := range win.results {
				r := &win.results[i]
				span := clientSpan{RequestID: in.window[i].id, Due: since(r.due), Sent: since(r.sent),
					Done: since(r.done), Status: r.status, Flushes: make([]int64, len(r.flushes))}
				for k, f := range r.flushes {
					span.Flushes[k] = since(f)
				}
				if err := enc.Encode(span); err != nil {
					return err
				}
			}
			return nil
		}))
}

// writeFile creates path and fills it through a buffered writer.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := fill(bw); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
