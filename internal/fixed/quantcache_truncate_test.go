package fixed

import (
	"math/rand"
	"testing"

	"tokenpicker/internal/tensor"
)

// TestQuantCacheTruncateKeepsMemoBelowMax pins the cheap rollback path: when
// the truncated tail never held the running max, the kept rows reproduce the
// shared scale exactly, so rewinding to a shared prefix and decoding a
// different continuation re-quantizes only the new rows — zero extra scale
// epochs.
func TestQuantCacheTruncateKeepsMemoBelowMax(t *testing.T) {
	const dim, bits = 8, 12
	rng := rand.New(rand.NewSource(23))
	m := tensor.NewMat(64, dim)
	m.RandInit(rng, 0.3)
	m.Set(5, 3, 4) // the running max lives in an early, always-kept row

	var qc QuantCache
	for n := 1; n <= 48; n++ {
		qc.Sync(m, n, dim, bits)
	}
	epochs := qc.Epochs()

	// Reject rows 30..47 and decode a different continuation in their place.
	qc.Truncate(30)
	if qc.Len() != 30 {
		t.Fatalf("truncate kept %d rows, want 30", qc.Len())
	}
	for r := 30; r < 60; r++ {
		for j := 0; j < dim; j++ {
			m.Set(r, j, float32(rng.Float64()-0.5))
		}
	}
	got, scale := qc.Sync(m, 60, dim, bits)
	checkAgainstScratch(t, got, scale, m, 60, dim, bits)
	if qc.Epochs() != epochs {
		t.Fatalf("rollback below the max re-quantized: %d epochs, was %d", qc.Epochs(), epochs)
	}
}

// TestQuantCacheTruncatePastMaxRebuilds pins the conservative path: when the
// rejected tail held the max magnitude, the memoized rows were quantized at a
// scale the kept rows cannot justify, so the memo must be discarded and the
// next Sync rebuild from scratch — bit-correct, just not incremental.
func TestQuantCacheTruncatePastMaxRebuilds(t *testing.T) {
	const dim, bits = 8, 12
	rng := rand.New(rand.NewSource(29))
	m := tensor.NewMat(40, dim)
	m.RandInit(rng, 0.3)
	m.Set(20, 1, 6) // the max lives in the soon-rejected tail

	var qc QuantCache
	qc.Sync(m, 40, dim, bits)
	qc.Truncate(16)
	if qc.Len() != 0 {
		t.Fatalf("memo kept %d rows quantized at a dead scale", qc.Len())
	}
	for r := 16; r < 40; r++ {
		for j := 0; j < dim; j++ {
			m.Set(r, j, float32(rng.Float64()-0.5))
		}
	}
	got, scale := qc.Sync(m, 36, dim, bits)
	checkAgainstScratch(t, got, scale, m, 36, dim, bits)
}

// TestQuantCacheTruncateSharedSeed pins the two rollback regimes around an
// adopted shared prefix: a cut beyond the seed takes the cheap path (the
// seed's own max is recorded), while a cut inside the seed must rebuild —
// the snapshot never recorded per-row maxima for its interior.
func TestQuantCacheTruncateSharedSeed(t *testing.T) {
	const dim, bits = 8, 12
	rng := rand.New(rand.NewSource(31))
	m := tensor.NewMat(32, dim)
	m.RandInit(rng, 0.3)
	m.Set(3, 0, 5) // global max inside the shared prefix

	sq := NewSharedQuant(16)
	var qc QuantCache
	qc.AdoptShared(sq)
	got, scale := qc.Sync(m, 32, dim, bits)
	checkAgainstScratch(t, got, scale, m, 32, dim, bits)

	// Beyond the seed: the seed max is known, rollback is cheap.
	qc.Truncate(20)
	if qc.Len() != 20 {
		t.Fatalf("cut beyond the seed kept %d rows, want 20", qc.Len())
	}
	got, scale = qc.Sync(m, 32, dim, bits)
	checkAgainstScratch(t, got, scale, m, 32, dim, bits)

	// Inside the seed: per-row maxima were never recorded there; rebuild.
	qc.Truncate(10)
	if qc.Len() != 0 {
		t.Fatalf("cut inside the shared seed kept %d rows", qc.Len())
	}
	got, scale = qc.Sync(m, 24, dim, bits)
	checkAgainstScratch(t, got, scale, m, 24, dim, bits)
}
