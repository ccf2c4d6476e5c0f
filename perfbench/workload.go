package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"tokenpicker/internal/corpus"
	"tokenpicker/internal/model"
	"tokenpicker/internal/sample"
	"tokenpicker/internal/train"
)

// workload is one traffic mix. Every window is an open loop on a seeded
// Poisson schedule at perSecond req/s, below a third of the workload's
// capacity: a closed loop saturates the host, and on a shared 2-vCPU host
// saturated runs swung by 20-30% with the host's load where these open loops
// moved by 5-10%. Window sizes are request counts, never durations, so every
// run of a workload does the same work.
type workload struct {
	name string
	// perSecond is the offered rate and the window's request count per
	// second of --seconds; the window never has fewer than minWindow
	// requests.
	perSecond float64
	// Prompts are promptMin..promptMax unshared tokens, behind sysPrompt
	// shared tokens when sysPrompt > 0.
	promptMin, promptMax int
	sysPrompt            int
	maxTokens            int
	// sampledHalf makes every other request use seeded top-k sampling
	// instead of greedy decoding.
	sampledHalf bool
	// warm discarded warm-up requests, of at most warmTokens tokens each,
	// run before the window.
	warm   int
	verify int // window completions checked against a reference decode
	// Goodput limits: a request counts toward goodput_rps only when its
	// TTFT and TPOT are within these.
	ttftLimit, tpotLimit time.Duration
}

// minWindow keeps at least ten requests beyond every reported p90.
const minWindow = 100

// warmTokens caps a warm-up request's max_tokens: the warm-up only has to
// touch every code path and, on sysprompt, publish the system prompt, so
// set-up time is not spent decoding.
const warmTokens = 8

var workloads = []workload{
	{
		// 15 req/s is under a fifth of chat's capacity. At 35 req/s a
		// competing process using 0.4 of a core raised ttft_p50_ms by 58%
		// (15% at 20 req/s), so host noise swamped the metric; at 20 req/s
		// ttft_p90_ms still spread up to 25% over ten runs.
		name: "chat", perSecond: 15,
		promptMin: 32, promptMax: 128, maxTokens: 48, sampledHalf: true,
		warm: 2 * runtime.NumCPU(), verify: 16,
		ttftLimit: 50 * time.Millisecond, tpotLimit: 2 * time.Millisecond,
	},
	// No workload prefills long unshared prompts: one that did (896-1152
	// prompt tokens, 256 greedy tokens, nproc closed-loop clients) swung its
	// ttft_p50_ms by up to 40% between runs minutes apart on a shared 2-vCPU
	// host, past any usable bound. sysprompt keeps the kernel at 1k+-row
	// contexts. 5 req/s is under a sixth of its closed-loop capacity.
	{
		name: "sysprompt", perSecond: 5,
		promptMin: 32, promptMax: 96, sysPrompt: 1024, maxTokens: 32,
		warm: 1 + runtime.NumCPU(), verify: 32,
		ttftLimit: 150 * time.Millisecond, tpotLimit: 3 * time.Millisecond,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// windowSize is the window's request count for a run of the given length.
func (w workload) windowSize(seconds int) int {
	n := int(w.perSecond*float64(seconds) + 0.5)
	if n < minWindow {
		n = minWindow
	}
	return n
}

// request is one prepared completion call.
type request struct {
	id        string // X-Request-ID
	prompt    []int
	sampling  sample.Config
	maxTokens int
	body      []byte
	due       time.Duration // window: send time after the phase start
}

// inputs is everything a run sends, generated from the seed alone.
type inputs struct {
	sys          []int // the system prompt every request starts with, if any
	warm, window []request
	verify       []int // window indices checked against the reference
}

// wireRequest is the POST /v1/completions body the benchmark sends.
type wireRequest struct {
	Prompt      []int   `json:"prompt"`
	MaxTokens   int     `json:"max_tokens"`
	Stream      bool    `json:"stream"`
	Temperature float64 `json:"temperature,omitempty"`
	TopK        int     `json:"top_k,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
}

// makeInputs builds a run's warm-up and window requests from the seed. Only
// the window has due times: every warm-up is a closed loop.
// Prompts are disjoint spans of the demo model's own training language —
// the training corpus generator continued past the training stream, from a
// seeded offset — so no two requests share a prefix except the workload's
// system prompt. Prompt lengths are spread evenly over the workload's range
// and shuffled, so every seed sends the same number of prompt tokens.
func makeInputs(w workload, seed int64, n int) inputs {
	rng := rand.New(rand.NewSource(seed))
	spans := w.sysPrompt + (w.warm+n)*w.promptMax
	stream := languageStream(rng.Intn(1<<15), spans)
	sys := stream[:w.sysPrompt]
	stream = stream[w.sysPrompt:]

	build := func(phase string, count, maxTokens int) []request {
		reqs := make([]request, count)
		lens := spread(count, w.promptMin, w.promptMax)
		for i := range reqs {
			r := &reqs[i]
			r.prompt = append(append(make([]int, 0, len(sys)+lens[i]), sys...), stream[:lens[i]]...)
			stream = stream[lens[i]:]
			r.maxTokens = maxTokens
			if w.sampledHalf && i%2 == 1 {
				r.sampling = sample.Config{Temperature: 0.8, TopK: 40, Seed: 1 + rng.Int63n(1<<31)}
			}
		}
		rng.Shuffle(count, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		for i := range reqs {
			// Ids follow send order, so they read in the order of the trace.
			reqs[i].id = fmt.Sprintf("pb-%s-%s-%d", w.name, phase, i)
			reqs[i].body = mustBody(&reqs[i])
		}
		return reqs
	}
	in := inputs{sys: sys, warm: build("warm", w.warm, min(w.maxTokens, warmTokens)), window: build("win", n, w.maxTokens)}
	schedule(in.window, w.perSecond, rng)
	in.verify = rng.Perm(n)[:w.verify]
	sort.Ints(in.verify)
	return in
}

// spread returns n lengths evenly covering [lo, hi].
func spread(n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo
		if n > 1 {
			out[i] = lo + i*(hi-lo)/(n-1)
		}
	}
	return out
}

// schedule sets open-loop due times: a Poisson process at rate conditioned
// on len(reqs) arrivals, i.e. sorted uniform times over len(reqs)/rate
// seconds, so every seed offers exactly the same load over the same span.
func schedule(reqs []request, rate float64, rng *rand.Rand) {
	span := float64(len(reqs)) / rate
	at := make([]float64, len(reqs))
	for i := range at {
		at[i] = rng.Float64() * span
	}
	sort.Float64s(at)
	for i := range reqs {
		reqs[i].due = time.Duration(at[i] * float64(time.Second))
	}
}

func mustBody(r *request) []byte {
	b, err := json.Marshal(wireRequest{
		Prompt: r.prompt, MaxTokens: r.maxTokens, Stream: true,
		Temperature: r.sampling.Temperature, TopK: r.sampling.TopK, Seed: r.sampling.Seed,
	})
	if err != nil {
		panic(err) // ints and floats always marshal
	}
	return b
}

// Demo model: the configuration and training profile topick-serve uses.
var (
	demoConfig  = model.TestConfig()
	demoOptions = train.QuickOptions()
)

// languageStream continues the demo model's training corpus generator past
// the training stream, skips skip tokens, and returns the next n.
func languageStream(skip, n int) []int {
	cfg := corpus.DefaultConfig(demoOptions.CorpusSeed)
	cfg.VocabSize = demoConfig.VocabSize
	if cfg.Branching >= cfg.VocabSize {
		cfg.Branching = cfg.VocabSize / 2
	}
	gen := corpus.NewGenerator(cfg)
	gen.Tokens(demoOptions.Steps*demoOptions.Batch*demoOptions.SeqLen + 4096) // the training stream
	return gen.Tokens(skip + n)[skip:]
}
