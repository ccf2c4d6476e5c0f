package tensor

// Grow returns buf resized to n elements, reusing its storage when the
// capacity suffices. Otherwise it allocates a fresh slice whose capacity is
// the next power of two >= n (at least 64) and copies buf's elements into
// it, so a length that grows by one row per decode step reallocates
// O(log n) times instead of every step, always at the same row counts.
// Elements past len(buf) are stale or zero: callers write before they read.
// This is the one scratch-growth helper of the hot paths; the runtime alloc
// guards decode over a growing context to pin it.
//
//topick:alloc-ok amortized power-of-two growth; steady-state calls reuse capacity
func Grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	c := cap(buf)
	if c < 64 {
		c = 64
	}
	for c < n {
		c *= 2
	}
	grown := make([]T, n, c)
	copy(grown, buf)
	return grown
}
