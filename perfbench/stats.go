package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile: a p90 needs at least 100 samples, a p99 at least 1000.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// method on a sorted copy. ok reports whether at least minBeyond samples lie
// beyond the rank, i.e. whether the percentile is worth reporting.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= minBeyond
}

// mustPercentile is percentile for an end-to-end metric, where a
// percentile without minBeyond samples beyond it is a benchmark defect.
func mustPercentile(name string, xs []float64, q float64) (float64, error) {
	v, ok := percentile(xs, q)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples leave fewer than %d beyond p%g", name, len(xs), minBeyond, q*100)
	}
	return v, nil
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tpot is one request's time per output token: the span from its first to
// its last token flush divided by the gaps between them. A request with
// fewer than two tokens has no TPOT (ok false).
func tpot(first, last time.Time, tokens int) (time.Duration, bool) {
	if tokens < 2 {
		return 0, false
	}
	return last.Sub(first) / time.Duration(tokens-1), true
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
