package bench

import (
	"context"
	"fmt"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/fleet"
	"tokenpicker/internal/model"
	"tokenpicker/internal/serve"
	"tokenpicker/internal/train"
)

// FleetServingOptions sizes the fleet-vs-single-engine comparison: tenant
// groups whose prompts share a per-group system prompt, served once by one
// engine and once by a replicated fleet with prefix-affinity routing.
type FleetServingOptions struct {
	Replicas  int // fleet size
	Groups    int // tenant groups, each with its own shared prefix
	Sessions  int // total sessions, split round-robin over groups
	PrefixLen int // shared prefix length per group (tokens)
	SuffixLen int // distinct suffix per session
	MaxNew    int // tokens generated per session
	Workers   int // decode workers per engine
	BlockRows int
	Threshold float64 // Token-Picker pruning threshold
}

// DefaultFleetServingOptions returns the profile used by cmd/topick-bench.
func DefaultFleetServingOptions() FleetServingOptions {
	return FleetServingOptions{
		Replicas:  2,
		Groups:    2,
		Sessions:  8,
		PrefixLen: 96,
		SuffixLen: 8,
		MaxNew:    24,
		Workers:   2,
		BlockRows: 32,
		Threshold: 1e-3,
	}
}

// FleetServingResult compares the same shared-prefix traffic on one engine
// and on a replica fleet with prefix-affinity routing. The fleet's win is
// throughput under replication while affinity keeps each group's prefix
// cache hot on one replica; the invariant is TokensMatch — routing must
// never change what is generated.
type FleetServingResult struct {
	Replicas    int
	Sessions    int
	Groups      int
	SingleSec   float64 // wall time, single engine
	FleetSec    float64 // wall time, fleet
	SingleTokS  float64 // aggregate generated tokens/s, single engine
	FleetTokS   float64 // aggregate generated tokens/s, fleet
	Routing     fleet.RoutingStats
	HitRates    []float64 // per-replica prefix-index hit rate
	TokensMatch bool      // fleet streams bit-identical to single engine
}

// Speedup returns single/fleet wall-clock ratio (>1 = fleet win).
func (r FleetServingResult) Speedup() float64 {
	if r.FleetSec == 0 {
		return 0
	}
	return r.SingleSec / r.FleetSec
}

// fleetServingPrompts builds Groups tenant groups of shared-prefix prompts
// from the held-out stream.
func fleetServingPrompts(r *train.Result, o FleetServingOptions) ([][]int, []string) {
	prompts := make([][]int, o.Sessions)
	tenants := make([]string, o.Sessions)
	for i := range prompts {
		g := i % o.Groups
		prefix := r.Held[g*o.PrefixLen : (g+1)*o.PrefixLen]
		start := (o.Groups*o.PrefixLen + i*o.SuffixLen) % (len(r.Held) - o.SuffixLen)
		p := append([]int(nil), prefix...)
		prompts[i] = append(p, r.Held[start:start+o.SuffixLen]...)
		tenants[i] = fmt.Sprintf("tenant-%d", g)
	}
	return prompts, tenants
}

// CompareFleetServing runs the same multi-tenant shared-prefix traffic on a
// single engine and on a Replicas-wide fleet with prefix-affinity routing,
// and reports aggregate throughput, the router's decision mix, per-replica
// prefix hit rates, and whether the token streams are bit-identical (they
// must be: replication distributes sessions, it never changes generation).
// Per group, the first session is submitted alone and drained so followers
// probe a populated prefix index; both arms use the identical schedule.
func CompareFleetServing(r *train.Result, o FleetServingOptions) FleetServingResult {
	prompts, tenants := fleetServingPrompts(r, o)
	engineCfg := serve.Config{
		Workers:     o.Workers,
		BlockRows:   o.BlockRows,
		SharePrefix: true,
		NewKernel:   func() model.Kernel { return attention.NewTokenPicker(o.Threshold) },
	}

	run := func(submit func(i int) (*serve.Stream, error)) (toks [][]int, wall float64) {
		start := time.Now()
		toks = make([][]int, len(prompts))
		drain := func(i int, st *serve.Stream) {
			for ev := range st.Events() {
				toks[i] = append(toks[i], ev.Token)
			}
			st.Result()
		}
		do := func(i int) *serve.Stream {
			st, err := submit(i)
			if err != nil {
				panic(fmt.Sprintf("bench: submit %d: %v", i, err))
			}
			return st
		}
		// Group leaders first, drained, so every follower's admission probe
		// can hit its group's published prefix.
		for i := 0; i < o.Groups && i < len(prompts); i++ {
			drain(i, do(i))
		}
		streams := make([]*serve.Stream, len(prompts))
		for i := o.Groups; i < len(prompts); i++ {
			streams[i] = do(i)
		}
		for i := o.Groups; i < len(prompts); i++ {
			drain(i, streams[i])
		}
		return toks, time.Since(start).Seconds()
	}

	req := func(i int) serve.GenerateRequest {
		return serve.GenerateRequest{Prompt: prompts[i], MaxTokens: o.MaxNew}
	}

	single := serve.NewServer(r.Params, engineCfg)
	sToks, sWall := run(func(i int) (*serve.Stream, error) {
		return single.Submit(context.Background(), req(i))
	})
	single.Close()

	fl := fleet.NewFleet(r.Params, fleet.Config{
		Replicas: o.Replicas,
		Affinity: true,
		Serve:    engineCfg,
	})
	fToks, fWall := run(func(i int) (*serve.Stream, error) {
		return fl.Submit(context.Background(), fleet.Request{GenerateRequest: req(i), Tenant: tenants[i]})
	})
	fRep := fl.Report()
	fl.Close()

	match := true
	for i := range fToks {
		if len(fToks[i]) != len(sToks[i]) {
			match = false
			break
		}
		for j := range fToks[i] {
			if fToks[i][j] != sToks[i][j] {
				match = false
				break
			}
		}
	}

	hitRates := make([]float64, len(fRep.Replicas))
	for i, rep := range fRep.Replicas {
		hitRates[i] = rep.Prefix.HitRate()
	}
	// Throughput counts emitted tokens. Report.GenTokens counts decode
	// steps, one fewer per session: each first token comes from prefill.
	emitted := func(toks [][]int) float64 {
		n := 0
		for _, t := range toks {
			n += len(t)
		}
		return float64(n)
	}
	res := FleetServingResult{
		Replicas:    o.Replicas,
		Sessions:    o.Sessions,
		Groups:      o.Groups,
		SingleSec:   sWall,
		FleetSec:    fWall,
		Routing:     fRep.Routing,
		HitRates:    hitRates,
		TokensMatch: match,
	}
	if sWall > 0 {
		res.SingleTokS = emitted(sToks) / sWall
	}
	if fWall > 0 {
		res.FleetTokS = emitted(fToks) / fWall
	}
	return res
}

// FleetServingTable renders the comparison in the experiment-harness style.
func FleetServingTable(res FleetServingResult) *Table {
	t := &Table{
		Title:  "Serving: single engine vs replica fleet with prefix-affinity routing",
		Header: []string{"mode", "wall (s)", "tokens/s"},
	}
	t.AddRow("single engine", fmt.Sprintf("%.3f", res.SingleSec), fmt.Sprintf("%.0f", res.SingleTokS))
	t.AddRow(fmt.Sprintf("fleet (%d replicas)", res.Replicas),
		fmt.Sprintf("%.3f", res.FleetSec), fmt.Sprintf("%.0f", res.FleetTokS))
	t.AddNote("%d sessions in %d tenant groups: %.2fx wall clock, tokens bit-identical: %v",
		res.Sessions, res.Groups, res.Speedup(), res.TokensMatch)
	t.AddNote("routing: %d affinity, %d spilled, %d balanced", res.Routing.Affinity,
		res.Routing.Spilled, res.Routing.Balanced)
	for i, hr := range res.HitRates {
		t.AddNote("replica %d prefix hit rate: %.0f%%", i, 100*hr)
	}
	return t
}
