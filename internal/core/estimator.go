package core

import (
	"fmt"
	"math"

	"tokenpicker/internal/fixed"
	"tokenpicker/internal/tensor"
)

// Inputs is one attention instance presented to the estimator. All keys
// share one quantization scale so integer partial scores are comparable
// across tokens (in hardware the KV cache is stored pre-quantized).
type Inputs struct {
	Q      fixed.Quantized // quantized query (fully on-chip)
	K      []fixed.Vector  // n quantized key vectors
	KScale float64         // shared key scale
	Scale  float64         // score scale, typically 1/sqrt(headDim)
	// KPlanes optionally carries precomputed chunk-contribution planes for
	// K (fixed.QuantCache.SyncChunked layout: KPlanes[b][i*dim+j]). When
	// set, per-chunk partial scores are flat integer multiply-adds instead
	// of per-element bit extraction — numerically identical, far cheaper.
	// nil falls back to on-the-fly extraction.
	KPlanes [][]int32
	// Bias is an optional additive score bias known before any K bits
	// arrive (e.g. ALiBi recency bias); nil means zero. It shifts both
	// interval ends equally so margins remain sound.
	Bias []float32
	// TrueScores is required only for OrderOracle.
	TrueScores []float64
}

// Report is the outcome of one estimator run.
type Report struct {
	N    int
	Kept []int // token indices retained, ascending
	// PrunedAtChunk[i] is the chunk index whose arrival pruned token i, or
	// -1 if the token was kept.
	PrunedAtChunk []int8
	// Scores[i] is the exact final score for kept tokens (garbage for
	// pruned ones).
	Scores []float64
	// LogDenominator is ln of the exponentiated sum over kept tokens,
	// i.e. the softmax denominator after step 0.
	LogDenominator float64
	// ChunkFetches[b] counts how many tokens had chunk b fetched.
	ChunkFetches []int64
}

// KeptMask reports whether token i survived.
func (r *Report) KeptMask(i int) bool { return r.PrunedAtChunk[i] < 0 }

// Prob returns the post-pruning softmax probability of kept token i.
func (r *Report) Prob(i int) float64 {
	return math.Exp(r.Scores[i] - r.LogDenominator)
}

// KBytes returns the key bytes fetched for a head dimension dim under spec.
func (r *Report) KBytes(cs fixed.ChunkSpec, dim int) int64 {
	var total int64
	for b, n := range r.ChunkFetches {
		total += n * int64(cs.ChunkBytes(dim, b))
	}
	return total
}

// VBytes returns the value bytes fetched (full vectors, kept tokens only).
func (r *Report) VBytes(cs fixed.ChunkSpec, dim int) int64 {
	return int64(len(r.Kept)) * int64(cs.VectorBytes(dim))
}

// BaselineKBytes returns key bytes a non-pruning accelerator fetches.
func (r *Report) BaselineKBytes(cs fixed.ChunkSpec, dim int) int64 {
	return int64(r.N) * int64(cs.VectorBytes(dim))
}

// BaselineVBytes returns value bytes a non-pruning accelerator fetches.
func (r *Report) BaselineVBytes(cs fixed.ChunkSpec, dim int) int64 {
	return int64(r.N) * int64(cs.VectorBytes(dim))
}

// Estimator runs Token-Picker probability estimation. It is not safe for
// concurrent use; create one per goroutine.
type Estimator struct {
	cfg Config

	// reusable scratch
	partial []int64
	expMin  []float64
	fxExp   []uint64
	order   []int
	active  []int
	next    []int
	margins fixed.Margins
}

// NewEstimator validates cfg and returns an estimator.
func NewEstimator(cfg Config) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{cfg: cfg}, nil
}

// MustNewEstimator is NewEstimator for static configs.
func MustNewEstimator(cfg Config) *Estimator {
	e, err := NewEstimator(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Config returns the estimator's configuration.
func (e *Estimator) Config() Config { return e.cfg }

// Run executes probability estimation over one instance and returns the
// pruning report. The report is freshly allocated; scratch state is reused.
func (e *Estimator) Run(in Inputs) *Report {
	rep := &Report{}
	e.RunInto(rep, in)
	return rep
}

// RunInto is Run with a caller-owned report: rep's slices are resized in
// place and reused across calls, so a kernel that keeps one report per
// instance pays zero allocations in steady state. Previous report contents
// are overwritten.
func (e *Estimator) RunInto(rep *Report, in Inputs) {
	n := len(in.K)
	cs := e.cfg.Chunks
	numChunks := cs.NumChunks()
	rep.N = n
	rep.Kept = rep.Kept[:0]
	rep.PrunedAtChunk = tensor.Grow(rep.PrunedAtChunk, n)
	rep.Scores = tensor.Grow(rep.Scores, n)
	if cap(rep.ChunkFetches) < numChunks {
		rep.ChunkFetches = make([]int64, numChunks)
	}
	rep.ChunkFetches = rep.ChunkFetches[:numChunks]
	for b := range rep.ChunkFetches {
		rep.ChunkFetches[b] = 0
	}
	if n == 0 {
		rep.LogDenominator = math.Inf(-1)
		return
	}
	if in.Bias != nil && len(in.Bias) != n {
		panic(fmt.Sprintf("core: bias length %d != n %d", len(in.Bias), n))
	}
	e.margins.Compute(cs, in.Q.Data)
	// Integer score -> real score conversion factor.
	c := in.Scale * in.Q.Scale * in.KScale

	e.ensureScratch(n)
	for i := range e.partial {
		e.partial[i] = 0
		e.expMin[i] = 0
		e.fxExp[i] = 0
		rep.PrunedAtChunk[i] = -1
	}
	e.buildOrder(n, in.TrueScores)

	if e.cfg.Schedule == ScheduleDepthFirst {
		e.runDepthFirst(in, e.margins, c, rep)
	} else {
		e.runWave(in, e.margins, c, rep)
	}

	// Collect kept tokens in ascending index order and the denominator.
	if e.cfg.FixedPointExp {
		var d uint64
		for i := 0; i < n; i++ {
			if rep.PrunedAtChunk[i] < 0 {
				d = fixed.AddSat(d, e.fxExp[i])
				rep.Kept = append(rep.Kept, i)
			}
		}
		rep.LogDenominator = fixed.Q16ToFloat(fixed.LnFix(d))
	} else {
		var d float64
		for i := 0; i < n; i++ {
			if rep.PrunedAtChunk[i] < 0 {
				d += e.expMin[i]
				rep.Kept = append(rep.Kept, i)
			}
		}
		rep.LogDenominator = math.Log(d)
	}
}

func (e *Estimator) ensureScratch(n int) {
	e.partial = tensor.Grow(e.partial, n)
	e.expMin = tensor.Grow(e.expMin, n)
	e.fxExp = tensor.Grow(e.fxExp, n)
	e.order = tensor.Grow(e.order, n)[:0]
	e.active = tensor.Grow(e.active, n)[:0]
	e.next = tensor.Grow(e.next, n)[:0]
}

// buildOrder fills e.order according to the policy.
func (e *Estimator) buildOrder(n int, trueScores []float64) {
	e.order = e.order[:0]
	switch e.cfg.Order {
	case OrderForward:
		for i := 0; i < n; i++ {
			e.order = append(e.order, i)
		}
	case OrderReverse:
		for i := n - 1; i >= 0; i-- {
			e.order = append(e.order, i)
		}
	case OrderOracle:
		if trueScores == nil {
			panic("core: OrderOracle requires Inputs.TrueScores")
		}
		for i := 0; i < n; i++ {
			e.order = append(e.order, i)
		}
		// Insertion sort by descending true score (n is modest and this
		// path is ablation-only).
		for i := 1; i < n; i++ {
			j := i
			for j > 0 && trueScores[e.order[j-1]] < trueScores[e.order[j]] {
				e.order[j-1], e.order[j] = e.order[j], e.order[j-1]
				j--
			}
		}
	default: // OrderPaper
		e.order = append(e.order, n-1)
		if n > 1 {
			e.order = append(e.order, 0)
		}
		for i := n - 2; i >= 1; i-- {
			e.order = append(e.order, i)
		}
	}
}

// denom abstracts the running denominator in float64 or fixed point.
type denom struct {
	fx    bool
	f     float64
	q     uint64
	lnThr float64 // ln(threshold), float
}

func (d *denom) add(delta float64, fxDelta uint64) {
	if d.fx {
		d.q = fixed.AddSat(d.q, fxDelta)
	} else {
		d.f += delta
	}
}

func (d *denom) sub(v float64, fxV uint64) {
	if d.fx {
		d.q = fixed.SubFloor(d.q, fxV)
	} else {
		d.f -= v
		if d.f < 0 {
			d.f = 0
		}
	}
}

// shouldPrune evaluates s_max - ln(D) <= ln(thr).
func (d *denom) shouldPrune(smax float64) bool {
	if d.fx {
		return fixed.FloatToQ16(smax)-fixed.LnFix(d.q) <= fixed.FloatToQ16(d.lnThr)
	}
	if d.f <= 0 {
		return false
	}
	return smax-math.Log(d.f) <= d.lnThr
}

// biasAt reads the optional additive score bias (nil means zero) without the
// closure allocation a captured accessor would cost on the hot path.
func biasAt(bias []float32, i int) float64 {
	if bias == nil {
		return 0
	}
	return float64(bias[i])
}

// processChunk advances token i by chunk b: updates the partial score and
// denominator, then decides prune/keep. Returns true if the token was
// pruned at this chunk.
// chunkDotPlane is ChunkSpec.ChunkDot over a precomputed contribution plane:
// identical accumulation order and values, no per-element bit extraction.
func chunkDotPlane(q fixed.Vector, plane []int32, i int) int64 {
	dim := len(q)
	row := plane[i*dim : (i+1)*dim]
	var acc int64
	for j, qv := range q {
		acc += int64(qv) * int64(row[j])
	}
	return acc
}

func (e *Estimator) processChunk(in Inputs, m fixed.Margins, c float64,
	rep *Report, d *denom, i, b int) bool {
	cs := e.cfg.Chunks
	if in.KPlanes != nil {
		e.partial[i] += chunkDotPlane(in.Q.Data, in.KPlanes[b], i)
	} else {
		e.partial[i] += cs.ChunkDot(in.Q.Data, in.K[i], b)
	}
	smin, smax := m.Interval(e.partial[i], b)
	sminF := c*float64(smin) + biasAt(in.Bias, i)
	smaxF := c*float64(smax) + biasAt(in.Bias, i)

	// Update this token's denominator contribution to the tightened bound.
	if e.cfg.FixedPointExp {
		newFx := fixed.ExpFix(fixed.FloatToQ16(sminF))
		d.sub(0, e.fxExp[i])
		d.add(0, newFx)
		e.fxExp[i] = newFx
	} else {
		newExp := math.Exp(sminF)
		d.sub(e.expMin[i], 0)
		d.add(newExp, 0)
		e.expMin[i] = newExp
	}

	last := b == cs.NumChunks()-1
	if last {
		rep.Scores[i] = smaxF // == sminF: exact
	}
	// Pruning at the final chunk no longer saves K bytes but still skips
	// the V fetch ("only the tokens that have not been removed by the last
	// chunk participate in subsequent softmax and xV operations", §3.2).
	if e.cfg.Threshold > 0 && d.shouldPrune(smaxF) {
		rep.PrunedAtChunk[i] = int8(b)
		if !e.cfg.KeepPrunedInDenominator {
			d.sub(e.expMin[i], e.fxExp[i])
			e.expMin[i] = 0
			e.fxExp[i] = 0
		}
		return true
	}
	return false
}

// runWave processes chunk b of every surviving token before chunk b+1.
func (e *Estimator) runWave(in Inputs, m fixed.Margins, c float64, rep *Report) {
	d := denom{fx: e.cfg.FixedPointExp, lnThr: math.Log(e.cfg.Threshold)}
	e.active = append(e.active[:0], e.order...)
	for b := 0; b < e.cfg.Chunks.NumChunks(); b++ {
		rep.ChunkFetches[b] += int64(len(e.active))
		e.next = e.next[:0]
		for _, i := range e.active {
			if !e.processChunk(in, m, c, rep, &d, i, b) {
				e.next = append(e.next, i)
			}
		}
		e.active, e.next = e.next, e.active
	}
}

// runDepthFirst streams each token's chunks to completion before moving on.
func (e *Estimator) runDepthFirst(in Inputs, m fixed.Margins, c float64, rep *Report) {
	d := denom{fx: e.cfg.FixedPointExp, lnThr: math.Log(e.cfg.Threshold)}
	numChunks := e.cfg.Chunks.NumChunks()
	for _, i := range e.order {
		for b := 0; b < numChunks; b++ {
			rep.ChunkFetches[b]++
			if e.processChunk(in, m, c, rep, &d, i, b) {
				break
			}
		}
	}
}
