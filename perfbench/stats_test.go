package main

import (
	"slices"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{100, 0.5, 50}, {100, 0.9, 90}, {101, 0.5, 51}, {1000, 0.99, 990}, {1, 0.5, 1},
	} {
		if got, _ := percentile(seq(tc.n), tc.q); got != tc.want {
			t.Errorf("percentile(1..%d, %g) = %g, want %g", tc.n, tc.q, got, tc.want)
		}
	}
	xs := seq(10)
	percentile(xs, 0.5)
	if !slices.Equal(xs, seq(10)) {
		t.Error("percentile reordered its input")
	}
}

func TestPercentileTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true},   // rank 90: samples 91..100 lie beyond
		{99, 0.9, false},   // rank 90 of 99: only 9 beyond
		{1000, 0.99, true}, // rank 990: 10 beyond
		{999, 0.99, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		if _, ok := percentile(seq(tc.n), tc.q); ok != tc.want {
			t.Errorf("percentile(%d samples, %g) ok = %v, want %v", tc.n, tc.q, ok, tc.want)
		}
	}
	if _, err := mustPercentile("ttft_p90_ms", seq(99), 0.9); err == nil {
		t.Error("mustPercentile accepted a p90 over 99 samples")
	}
	if v, err := mustPercentile("ttft_p90_ms", seq(100), 0.9); err != nil || v != 90 {
		t.Errorf("mustPercentile(100 samples, 0.9) = %g, %v", v, err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

func TestTPOT(t *testing.T) {
	t0 := time.Unix(100, 0)
	if d, ok := tpot(t0, t0.Add(47*time.Millisecond), 48); !ok || d != time.Millisecond {
		t.Errorf("tpot over 48 tokens in 47ms = %v, %v; want 1ms", d, ok)
	}
	if _, ok := tpot(t0, t0, 1); ok {
		t.Error("a single-token request has no TPOT")
	}
	// TPOT is per request: the first token's wait is TTFT, not a gap.
	r := result{due: t0, first: t0.Add(30 * time.Millisecond), last: t0.Add(40 * time.Millisecond), tokens: 11}
	if got := r.ttft(); got != 30 {
		t.Errorf("ttft = %gms, want 30", got)
	}
	if got, ok := r.tpotMs(); !ok || got != 1 {
		t.Errorf("tpotMs = %g, %v; want 1", got, ok)
	}
}

func TestInputsDeterministicAndDisjoint(t *testing.T) {
	w, err := lookupWorkload("sysprompt")
	if err != nil {
		t.Fatal(err)
	}
	a, b := makeInputs(w, 7, 120), makeInputs(w, 7, 120)
	c := makeInputs(w, 8, 120)
	if len(a.window) != 120 || len(a.warm) != w.warm {
		t.Fatalf("got %d window and %d warm-up requests", len(a.window), len(a.warm))
	}
	total := 0
	for i := range a.window {
		if !slices.Equal(a.window[i].body, b.window[i].body) {
			t.Fatalf("request %d differs between runs of one seed", i)
		}
		total += len(a.window[i].prompt)
	}
	if slices.Equal(a.window[0].prompt, c.window[0].prompt) {
		t.Error("seeds 7 and 8 sent the same first prompt")
	}
	ctotal := 0
	for i := range c.window {
		ctotal += len(c.window[i].prompt)
	}
	if total != ctotal {
		t.Errorf("prompt tokens differ across seeds: %d vs %d", total, ctotal)
	}
	// Every prompt is the system prompt plus a suffix shared with no other
	// request, so the prefix index can only ever match the system prompt.
	sys := a.window[0].prompt[:w.sysPrompt]
	seen := map[string]bool{}
	for _, r := range append(a.warm, a.window...) {
		if !slices.Equal(r.prompt[:w.sysPrompt], sys) {
			t.Fatalf("%s does not start with the system prompt", r.id)
		}
		key := tokenKey(r.prompt[w.sysPrompt : w.sysPrompt+w.promptMin])
		if seen[key] {
			t.Fatalf("%s repeats another request's suffix", r.id)
		}
		seen[key] = true
	}
}

func tokenKey(xs []int) string {
	b := make([]byte, 0, len(xs))
	for _, x := range xs {
		b = append(b, byte(x))
	}
	return string(b)
}

func TestWindowSizeKeepsTenBeyondP90(t *testing.T) {
	for _, w := range workloads {
		if n := w.windowSize(1); n < minWindow {
			t.Errorf("%s: %d-request window", w.name, n)
		}
		if w.verify > w.windowSize(1) {
			t.Errorf("%s verifies more requests than it sends", w.name)
		}
	}
}

func TestPhaseBusyMergesOverlaps(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	p := phase{results: []result{
		{due: at(10), done: at(30)},
		{due: at(0), done: at(15)},  // overlaps the first: 0-30
		{due: at(20), done: at(25)}, // inside it
		{due: at(50), done: at(60)}, // idle 30-50, then 10 busy
	}}
	if got := p.busy(); got != 40*time.Millisecond {
		t.Errorf("busy = %v, want 40ms", got)
	}
	if got := (&phase{}).busy(); got != 0 {
		t.Errorf("empty phase busy = %v, want 0", got)
	}
}
