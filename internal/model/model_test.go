package model

import (
	"errors"
	"math"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	good := TestConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("test config invalid: %v", err)
	}
	bad := []Config{
		{Name: "v", VocabSize: 1, Layers: 1, Heads: 1, HeadDim: 8, FFNMult: 1, MaxSeq: 16, Eps: 1e-5},
		{Name: "l", VocabSize: 8, Layers: 0, Heads: 1, HeadDim: 8, FFNMult: 1, MaxSeq: 16, Eps: 1e-5},
		{Name: "h", VocabSize: 8, Layers: 1, Heads: 0, HeadDim: 8, FFNMult: 1, MaxSeq: 16, Eps: 1e-5},
		{Name: "d", VocabSize: 8, Layers: 1, Heads: 1, HeadDim: 2, FFNMult: 1, MaxSeq: 16, Eps: 1e-5},
		{Name: "e", VocabSize: 8, Layers: 1, Heads: 1, HeadDim: 8, FFNMult: 1, MaxSeq: 16, Eps: 0},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %q should be invalid", c.Name)
		}
	}
}

func TestAlibiSlopesDecreasing(t *testing.T) {
	cfg := Config{Heads: 4}
	prev := float32(math.Inf(1))
	for h := 0; h < 4; h++ {
		s := cfg.AlibiSlope(h)
		if s <= 0 || s >= 1 {
			t.Fatalf("head %d slope %g out of (0,1)", h, s)
		}
		if s >= prev {
			t.Fatalf("slopes must decrease: head %d slope %g >= %g", h, s, prev)
		}
		prev = s
	}
}

func TestFamilyShape(t *testing.T) {
	fam := Family()
	if len(fam) != 8 {
		t.Fatalf("family has %d members, want 8", len(fam))
	}
	for _, pm := range fam {
		if err := pm.StandIn.Validate(); err != nil {
			t.Errorf("%s stand-in invalid: %v", pm.Paper, err)
		}
		if pm.PaperLayers < 20 || pm.PaperDModel < 1000 {
			t.Errorf("%s published shape looks wrong: %d layers, %d dmodel",
				pm.Paper, pm.PaperLayers, pm.PaperDModel)
		}
	}
	if GPT2Medium().PaperDModel != 1024 {
		t.Error("GPT2-Medium shape wrong")
	}
}

func TestParamsCount(t *testing.T) {
	cfg := TestConfig()
	p := NewParams(cfg, 1)
	d := cfg.DModel()
	f := cfg.FFNDim()
	want := cfg.VocabSize*d + 2*d                                     // embedding + final LN
	perBlock := 4*d /*ln*/ + 4*d*d + 4*d /*attn*/ + f*d + f + d*f + d /*ffn*/
	want += cfg.Layers * perBlock
	if got := p.NumParams(); got != want {
		t.Fatalf("param count %d, want %d", got, want)
	}
}

func TestVisitSlicesCoversEverything(t *testing.T) {
	p := NewParams(TestConfig(), 2)
	var visited int
	p.VisitSlices(func(_ string, s []float32) { visited += len(s) })
	if visited != p.NumParams() {
		t.Fatalf("VisitSlices covers %d of %d params", visited, p.NumParams())
	}
}

func TestDecoderDeterministicAndResettable(t *testing.T) {
	p := NewParams(TestConfig(), 3)
	dec := NewDecoder(p, nil)
	toks := []int{1, 2, 3, 4, 5}
	first := append([]float32{}, dec.MustPrompt(toks)...)
	dec.Reset()
	second := dec.MustPrompt(toks)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("reset decoder diverged at logit %d", i)
		}
	}
	if dec.Len() != len(toks) {
		t.Fatalf("len %d, want %d", dec.Len(), len(toks))
	}
}

func TestDecoderPanicsOnBadToken(t *testing.T) {
	p := NewParams(TestConfig(), 3)
	dec := NewDecoder(p, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-vocab token should panic")
		}
	}()
	dec.Step(p.Cfg.VocabSize)
}

func TestStepReturnsErrContextFull(t *testing.T) {
	cfg := TestConfig()
	cfg.MaxSeq = 8
	p := NewParams(cfg, 3)
	dec := NewDecoder(p, nil)
	for i := 0; i < cfg.MaxSeq; i++ {
		if _, err := dec.Step(i % cfg.VocabSize); err != nil {
			t.Fatalf("step %d failed early: %v", i, err)
		}
	}
	if _, err := dec.Step(1); !errors.Is(err, ErrContextFull) {
		t.Fatalf("step beyond MaxSeq returned %v, want ErrContextFull", err)
	}
	// Prompt surfaces the same sentinel.
	dec.Reset()
	long := make([]int, cfg.MaxSeq+1)
	if _, err := dec.Prompt(long); !errors.Is(err, ErrContextFull) {
		t.Fatalf("prompt beyond MaxSeq returned %v, want ErrContextFull", err)
	}
	// Reset clears the window so decoding can continue.
	dec.Reset()
	if _, err := dec.Step(1); err != nil {
		t.Fatalf("step after reset failed: %v", err)
	}
}

func TestKernelSeesGrowingContext(t *testing.T) {
	p := NewParams(TestConfig(), 4)
	probe := &probeKernel{}
	dec := NewDecoder(p, probe)
	dec.MustPrompt([]int{1, 2})
	for i := 0; i < 4; i++ {
		dec.MustStep(3)
	}
	// Prompt uses exact attention (kernel not called); generation submits
	// one layer batch per layer per step with n = 3, 4, 5, 6 and every
	// head's sources populated.
	cfg := p.Cfg
	wantCalls := 4 * cfg.Layers
	if len(probe.ns) != wantCalls {
		t.Fatalf("kernel called %d times, want %d", len(probe.ns), wantCalls)
	}
	for i, n := range probe.ns {
		step := i / cfg.Layers
		if n != 3+step {
			t.Fatalf("call %d saw context %d, want %d", i, n, 3+step)
		}
	}
	if probe.minHeads != cfg.Heads {
		t.Fatalf("batches carried %d heads, want %d", probe.minHeads, cfg.Heads)
	}
}

type probeKernel struct {
	inner    ExactKernel
	ns       []int
	minHeads int
}

func (pk *probeKernel) AttendLayer(b AttendBatch) {
	pk.inner.AttendLayer(b)
	pk.ns = append(pk.ns, b.N)
	heads := len(b.Keys)
	if len(b.Vals) < heads {
		heads = len(b.Vals)
	}
	if heads != b.Heads {
		heads = -1 // malformed batch; fails the head check
	}
	if pk.minHeads == 0 || heads < pk.minHeads {
		pk.minHeads = heads
	}
}

func TestScoresHelper(t *testing.T) {
	p := NewParams(TestConfig(), 5)
	dec := NewDecoder(p, nil)
	dec.MustPrompt([]int{1, 2, 3})
	keys, _ := dec.Cache(0, 0)
	q := make([]float32, p.Cfg.HeadDim)
	q[0] = 1
	scores := Scores(q, keys, 3, 1, 0.5)
	if len(scores) != 3 {
		t.Fatalf("scores len %d", len(scores))
	}
	// Recency bias: same dot product would rank the newest token higher.
	zero := make([]float32, p.Cfg.HeadDim)
	s := Scores(zero, keys, 3, 1, 0.5)
	if !(s[2] > s[1] && s[1] > s[0]) {
		t.Fatalf("ALiBi bias not monotone: %v", s)
	}
}

// TestDecoderRollbackRebuildsState pins the Rollback contract on dense
// caches: truncating to n and re-stepping must produce logits bit-identical
// to a fresh decoder that never overshot, and out-of-range rollbacks panic.
func TestDecoderRollbackRebuildsState(t *testing.T) {
	cfg := TestConfig()
	p := NewParams(cfg, 41)
	tokens := func(seed, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = (seed*31 + i*13) % cfg.VocabSize
		}
		return out
	}
	prompt := tokens(9, 14)

	dec := NewDecoder(p, nil)
	dec.MustPrompt(prompt)
	n0 := dec.Len()
	// Overshoot with garbage the rollback must fully erase.
	for i := 0; i < 5; i++ {
		dec.MustStep((i * 7) % cfg.VocabSize)
	}
	dec.Rollback(n0)
	if dec.Len() != n0 {
		t.Fatalf("Len %d after rollback, want %d", dec.Len(), n0)
	}

	ref := NewDecoder(p, nil)
	ref.MustPrompt(prompt)
	for _, tok := range tokens(2, 6) {
		got := dec.MustStep(tok)
		want := ref.MustStep(tok)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("logit %d after rollback diverged: %g != %g", j, got[j], want[j])
			}
		}
	}

	// Rollback(Len()) is a no-op; out-of-range panics.
	dec.Rollback(dec.Len())
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Rollback past Len did not panic")
			}
		}()
		dec.Rollback(dec.Len() + 1)
	}()
}
