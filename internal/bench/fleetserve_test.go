package bench

import (
	"math"
	"testing"

	"tokenpicker/internal/train"
)

// TestCompareFleetServing checks the acceptance criteria of the fleet arm:
// the fleet must emit bit-identical token streams, every session must be
// accounted to exactly one router decision, and with as many replicas as
// tenant groups and an unloaded fleet every admission routes by affinity
// (each group's prefix key has one stable rendezvous winner).
func TestCompareFleetServing(t *testing.T) {
	r := train.TestModel()
	o := DefaultFleetServingOptions()
	o.Sessions = 6
	o.MaxNew = 8
	res := CompareFleetServing(r, o)

	if !res.TokensMatch {
		t.Fatal("fleet routing changed generated tokens")
	}
	routed := res.Routing.Affinity + res.Routing.Spilled + res.Routing.Balanced
	if routed != int64(o.Sessions) {
		t.Fatalf("router decisions %d, want %d (%+v)", routed, o.Sessions, res.Routing)
	}
	if res.Routing.Affinity != int64(o.Sessions) {
		t.Fatalf("unloaded fleet should route all sessions by affinity: %+v", res.Routing)
	}
	if len(res.HitRates) != o.Replicas {
		t.Fatalf("hit rates for %d replicas, want %d", len(res.HitRates), o.Replicas)
	}
	if res.SingleTokS <= 0 || res.FleetTokS <= 0 {
		t.Fatalf("throughput not measured: single %.1f fleet %.1f tok/s", res.SingleTokS, res.FleetTokS)
	}
	// Throughput is emitted tokens per second: every session emits MaxNew
	// tokens, the first from prefill and the rest from decode steps.
	emitted := float64(o.Sessions * o.MaxNew)
	if got := math.Round(res.SingleTokS * res.SingleSec); got != emitted {
		t.Fatalf("single-engine tok/s x wall = %.0f tokens, want %.0f emitted", got, emitted)
	}
	if got := math.Round(res.FleetTokS * res.FleetSec); got != emitted {
		t.Fatalf("fleet tok/s x wall = %.0f tokens, want %.0f emitted", got, emitted)
	}
	// Rendering must not panic and must carry the bit-exactness verdict.
	if tbl := FleetServingTable(res).String(); tbl == "" {
		t.Fatal("empty table")
	}
}
