// Command perfbench is the serving benchmark of the Token-Picker engine. It
// boots the engine the way topick-serve -listen does (Token-Picker kernel at
// threshold 1e-3, prefix sharing on, library defaults for everything else),
// drives httpapi.Handler in-process through a flush-timestamping
// ResponseWriter, checks sampled completions against a reference decode,
// and prints one JSON result line.
//
// Usage:
//
//	perfbench --workload chat|sysprompt --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced window. The exit
// status is non-zero when a sampled completion differs from its reference
// decode or the token accounting does not reconcile.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// setupRuns is how many full set-ups one run times; setup_s is their
// median.
const setupRuns = 7

// traceDir receives a traced run's spans, under the build directory run.sh
// uses, which the repository ignores.
const traceDir = ".bench_build/trace"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: chat or sysprompt")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "nominal window length; sets the window's request count")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	in := makeInputs(w, *seed, w.windowSize(*seconds))
	tracePrefix := ""
	if *trace == 1 {
		tracePrefix = fmt.Sprintf("%s/%s-seed%d", traceDir, w.name, *seed)
	}
	out, err := measure(context.Background(), w, &in, tracePrefix, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// setupTimes are the medians over the run's set-ups, in seconds.
type setupTimes struct{ total, fit, warm float64 }

// measure runs the untraced window and assembles the result. With a
// tracePrefix it also serves the window again on a traced stack, reports the
// per-layer metrics, and writes the spans to files under tracePrefix.
func measure(ctx context.Context, w workload, in *inputs, tracePrefix string, log io.Writer) (output, error) {
	var out output
	st, setup, err := bootMedian(ctx, w, in)
	if err != nil {
		return out, err
	}
	win, err := st.measureWindow(ctx, in, false)
	st.srv.Close()
	if err != nil {
		return out, err
	}
	ver, err := verify(st.params, in, &win, in.sys)
	if err != nil {
		return out, err
	}
	out.Correct = reconcile(w, &win, ver, log)
	out.Attempted = len(win.results)
	_, _, out.Failed = win.counts()
	if tracePrefix == "" {
		out.Metrics, err = endToEnd(w, &win, ver, setup.total, log)
		return out, err
	}

	tst, err := boot(ctx, w, in, true)
	if err != nil {
		return out, err
	}
	twin, err := tst.measureWindow(ctx, in, true)
	tst.srv.Close()
	if err != nil {
		return out, err
	}
	tver, err := verify(tst.params, in, &twin, in.sys)
	if err != nil {
		return out, err
	}
	out.Correct = reconcile(w, &twin, tver, log) && sameCounts(&win, &twin, log) && out.Correct
	_, _, out.Failed = twin.counts()
	out.Metrics = perLayer(w, in, tst, &twin, &win, setup, tver)
	return out, writeTrace(tracePrefix, tst, in, &twin)
}

// bootMedian boots setupRuns stacks, closing all but the last, and returns
// the last with the median set-up times.
func bootMedian(ctx context.Context, w workload, in *inputs) (*stack, setupTimes, error) {
	var st *stack
	var total, fit, warm []float64
	for range setupRuns {
		if st != nil {
			st.srv.Close()
		}
		var err error
		if st, err = boot(ctx, w, in, false); err != nil {
			return nil, setupTimes{}, err
		}
		total = append(total, st.total.Seconds())
		fit = append(fit, st.fit.Seconds())
		warm = append(warm, st.warm.Seconds())
	}
	return st, setupTimes{median(total), median(fit), median(warm)}, nil
}

// reconcile checks the window's correctness: every sampled completion
// matched its reference decode, and the client's token count equals both
// the sum of usage.completion_tokens and the change in
// topick_generated_tokens_total.
func reconcile(w workload, win *window, ver verification, log io.Writer) bool {
	ok := true
	for _, m := range ver.mismatches {
		fmt.Fprintln(log, "perfbench: reference mismatch:", m)
		ok = false
	}
	client, usage := 0, 0
	for i := range win.results {
		client += win.results[i].tokens
		usage += win.results[i].usage
	}
	generated := int(win.after.generated - win.before.generated)
	if client != usage || client != generated {
		fmt.Fprintf(log, "perfbench: token accounting: client %d, usage %d, topick_generated_tokens_total %+d\n",
			client, usage, generated)
		ok = false
	}
	return ok
}

// sameCounts checks that tracing changed none of the counts the engine
// produces deterministically from the inputs.
func sameCounts(plain, traced *window, log io.Writer) bool {
	type counts struct {
		kvRatio, pruning              float64
		lookups, hits, reused, prompt int64
		entries                       int
	}
	of := func(win *window) counts {
		d := attnDelta(win.before.rep, win.after.rep)
		b, a := win.before.rep, win.after.rep
		return counts{
			kvRatio: kvBytesRatio(d), pruning: d.PruningRatio(),
			lookups: a.Prefix.Lookups - b.Prefix.Lookups, hits: a.Prefix.Hits - b.Prefix.Hits,
			reused: a.Prefix.RowsReused - b.Prefix.RowsReused, prompt: a.PromptTokens - b.PromptTokens,
			entries: a.Prefix.Entries,
		}
	}
	p, t := of(plain), of(traced)
	if p != t {
		fmt.Fprintf(log, "perfbench: traced window counts %+v differ from untraced %+v\n", t, p)
		return false
	}
	return true
}

// latencies collects the window's per-request TTFT and TPOT (ms) over the
// requests that completed correctly, with the count that met the workload's
// limits and the tokens the client received.
type latencies struct {
	ttft, tpot       []float64
	ok, good, tokens int
}

func latenciesOf(w workload, win *window) latencies {
	var l latencies
	for i := range win.results {
		r := &win.results[i]
		l.tokens += r.tokens
		if !r.ok() {
			continue
		}
		l.ok++
		t := r.ttft()
		p, _ := r.tpotMs()
		l.ttft = append(l.ttft, t)
		l.tpot = append(l.tpot, p)
		if t <= ms(w.ttftLimit) && p <= ms(w.tpotLimit) {
			l.good++
		}
	}
	return l
}

// endToEnd computes the metrics a user of the server sees.
func endToEnd(w workload, win *window, ver verification, setup float64, log io.Writer) (map[string]metric, error) {
	l := latenciesOf(w, win)
	m := map[string]metric{}
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"ttft_p50_ms", l.ttft, 0.5}, {"ttft_p90_ms", l.ttft, 0.9},
		{"tpot_p50_ms", l.tpot, 0.5}, {"tpot_p90_ms", l.tpot, 0.9},
	} {
		v, err := mustPercentile(p.name, p.xs, p.q)
		if err != nil {
			return nil, err
		}
		m[p.name] = metric{v, "ms"}
	}
	busy := win.busy().Seconds()
	fmt.Fprintf(log, "perfbench: %s window: %d requests, %d ok, %d within limits, %d tokens in %.3fs busy of %.3fs\n",
		w.name, len(win.results), l.ok, l.good, l.tokens, busy, win.end.Sub(win.start).Seconds())
	m["setup_s"] = metric{setup, "s"}
	m["output_tok_s"] = metric{float64(l.tokens) / busy, "tok/s"}
	m["goodput_rps"] = metric{float64(l.good) / busy, "req/s"}
	m["ok_frac"] = metric{float64(l.ok) / float64(len(win.results)), "frac"}
	m["mem_retained_mb"] = metric{win.retainedMB, "MB"}
	m["kv_bytes_ratio"] = metric{kvBytesRatio(attnDelta(win.before.rep, win.after.rep)), "x"}
	m["argmax_agree"] = metric{ratio(float64(ver.agree), float64(ver.positions)), "frac"}
	return m, nil
}
