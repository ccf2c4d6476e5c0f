// Package attention provides the model.Kernel implementations compared in
// the paper's evaluation: exact float attention, 12-bit quantized exact
// attention (the non-pruning accelerator's arithmetic), the Token-Picker
// estimator kernel, and an oracle pruner that bounds what any
// probability-threshold method could achieve. Every kernel tracks the
// off-chip traffic it would have generated so perplexity and memory-access
// numbers come from the same code path.
//
// Kernels receive whole layers (model.AttendBatch) — one or many query rows,
// each row one (sequence, position) instance — and schedule the rows×heads
// tasks on the batch's executor. All mutable per-call state — quantization
// scratch, estimator scratch, transfer statistics — lives in per-slot
// shards, so tasks running concurrently never share memory; statistics are
// merged across shards when read. Task outputs are computed independently
// with no cross-task reduction, so pool execution is bit-identical to
// serial, and multi-row batches may mix rows from different sessions (the
// iteration-batched serving path): these kernels keep no per-sequence state
// beyond the cache-owned quantization side-cars.
package attention

import (
	"math"

	"tokenpicker/internal/core"
	"tokenpicker/internal/fixed"
	"tokenpicker/internal/model"
	"tokenpicker/internal/tensor"
)

// Stats accumulates transfer accounting across attention calls.
type Stats struct {
	Instances int64 // attention instances (query x layer x head)
	Tokens    int64 // context tokens summed over instances
	Kept      int64 // tokens whose V was fetched
	// ChunkFetches[b] counts K chunk-b vector fetches (Token-Picker only).
	ChunkFetches []int64
	KBytes       int64 // key bytes fetched
	VBytes       int64 // value bytes fetched
	// Baseline bytes: what a non-pruning design moves for the same calls.
	BaselineKBytes int64
	BaselineVBytes int64
}

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	s.Instances += other.Instances
	s.Tokens += other.Tokens
	s.Kept += other.Kept
	for len(s.ChunkFetches) < len(other.ChunkFetches) {
		s.ChunkFetches = append(s.ChunkFetches, 0)
	}
	for b, v := range other.ChunkFetches {
		s.ChunkFetches[b] += v
	}
	s.KBytes += other.KBytes
	s.VBytes += other.VBytes
	s.BaselineKBytes += other.BaselineKBytes
	s.BaselineVBytes += other.BaselineVBytes
}

// PruningRatio returns tokens/kept (the paper's V-access reduction factor).
func (s *Stats) PruningRatio() float64 {
	if s.Kept == 0 {
		return math.Inf(1)
	}
	return float64(s.Tokens) / float64(s.Kept)
}

// KReduction returns baseline K bytes / fetched K bytes.
func (s *Stats) KReduction() float64 {
	if s.KBytes == 0 {
		return math.Inf(1)
	}
	return float64(s.BaselineKBytes) / float64(s.KBytes)
}

// TotalReduction returns baseline (K+V) bytes / fetched (K+V) bytes.
func (s *Stats) TotalReduction() float64 {
	moved := s.KBytes + s.VBytes
	if moved == 0 {
		return math.Inf(1)
	}
	return float64(s.BaselineKBytes+s.BaselineVBytes) / float64(moved)
}

// quantScratch holds one slot's quantization state shared by every kernel
// in this package: a quantized-query buffer and two fallback QuantCaches
// for row sources that do not carry their own side-car. When the source
// implements fixed.CacheQuantizer (the decoder's dense cache and the
// serving engine's paged cache both do), SyncFor routes to the source-owned
// side-car instead and quantization is incremental — O(added rows) per
// decode step rather than O(context).
type quantScratch struct {
	qk, qv fixed.QuantCache
	qq     fixed.Vector
	bias   []float32
}

// query quantizes q reusing the slot-owned buffer.
func (qs *quantScratch) query(q []float32, bits uint) fixed.Quantized {
	out := fixed.QuantizeInto(qs.qq, q, bits)
	qs.qq = out.Data
	return out
}

// keys and values fetch the shared-scale quantized rows of the K/V cache.
func (qs *quantScratch) keys(src tensor.RowSource, n, dim int, bits uint) ([]fixed.Vector, float64) {
	return qs.qk.SyncFor(src, n, dim, bits)
}

// chunkedKeys additionally returns the chunk-contribution planes for cs when
// src carries a side-car. Bare sources get nil planes: building all planes
// eagerly would do more bit work than the estimator's lazy per-surviving-
// token extraction, so the win only exists when the planes persist across
// calls.
func (qs *quantScratch) chunkedKeys(src tensor.RowSource, n, dim int, cs fixed.ChunkSpec) ([]fixed.Vector, [][]int32, float64) {
	if cq, ok := src.(fixed.CacheQuantizer); ok {
		rows, planes, scale := cq.QuantCache().SyncChunked(src, n, dim, cs)
		return rows, planes, scale
	}
	qs.qk.Invalidate()
	rows, scale := qs.qk.Sync(src, n, dim, cs.TotalBits)
	return rows, nil, scale
}

func (qs *quantScratch) values(src tensor.RowSource, n, dim int, bits uint) ([]fixed.Vector, float64) {
	return qs.qv.SyncFor(src, n, dim, bits)
}

// TokenPicker is the paper's kernel: probability-estimation pruning over
// chunked 12-bit keys, quantized values for kept tokens only.
type TokenPicker struct {
	Est    *core.Estimator // slot 0's estimator; extra slots clone its config
	Bits   uint            // operand precision (12 in the paper)
	slots  []tpSlot
	runner tpRunner
}

// tpSlot is one executor slot's private state.
type tpSlot struct {
	est   *core.Estimator
	rep   core.Report
	qs    quantScratch
	stats Stats
}

type tpRunner struct {
	k *TokenPicker
	b model.AttendBatch
}

// Do implements exec.Tasks.
func (r *tpRunner) Do(t, slot int) { r.k.attendTask(&r.b, t, slot) }

// NewTokenPicker builds the kernel at the given pruning threshold with the
// paper's defaults.
func NewTokenPicker(threshold float64) *TokenPicker {
	return &TokenPicker{Est: core.MustNewEstimator(core.DefaultConfig(threshold)), Bits: 12}
}

// NewTokenPickerFrom wraps a custom-configured estimator.
func NewTokenPickerFrom(cfg core.Config) *TokenPicker {
	return &TokenPicker{Est: core.MustNewEstimator(cfg), Bits: cfg.Chunks.TotalBits}
}

// Stats returns the transfer statistics merged across executor slots.
func (k *TokenPicker) Stats() Stats {
	var merged Stats
	for i := range k.slots {
		merged.Add(k.slots[i].stats)
	}
	return merged
}

// ResetStats clears the accumulated statistics of every slot.
func (k *TokenPicker) ResetStats() {
	for i := range k.slots {
		k.slots[i].stats = Stats{}
	}
}

// ensureSlots provisions per-slot state up to width. Slot 0 reuses the
// kernel's configured estimator; extra slots get clones of its config, so
// every slot prunes identically.
func (k *TokenPicker) ensureSlots(width int) {
	for len(k.slots) < width {
		var est *core.Estimator
		if len(k.slots) == 0 {
			est = k.Est
		} else {
			est = core.MustNewEstimator(k.Est.Config())
		}
		k.slots = append(k.slots, tpSlot{est: est})
	}
}

// AttendLayer implements model.Kernel.
func (k *TokenPicker) AttendLayer(batch model.AttendBatch) {
	k.ensureSlots(batch.Width())
	k.runner.k = k
	k.runner.b = batch
	batch.Run(&k.runner)
}

// attendTask is the per-(row, head) hot path.
//
//topick:noalloc
func (k *TokenPicker) attendTask(b *model.AttendBatch, t, slot int) {
	s := &k.slots[slot]
	q, out := b.TaskQ(t), b.TaskOut(t)
	keys, vals := b.Keys[t], b.Vals[t]
	n, dim := b.TaskN(t), b.HeadDim
	slope := b.TaskSlope(t)
	cspec := s.est.Config().Chunks
	kRows, kPlanes, kScale := s.qs.chunkedKeys(keys, n, dim, cspec)
	qq := s.qs.query(q, k.Bits)
	s.qs.bias = tensor.Grow(s.qs.bias, n)
	for i := 0; i < n; i++ {
		s.qs.bias[i] = -slope * float32(n-1-i)
	}
	rep := &s.rep
	s.est.RunInto(rep, core.Inputs{
		Q:       qq,
		K:       kRows,
		KPlanes: kPlanes,
		KScale:  kScale,
		Scale:   float64(b.Scale),
		Bias:    s.qs.bias,
	})

	cs := s.est.Config().Chunks
	s.stats.Instances++
	s.stats.Tokens += int64(n)
	s.stats.Kept += int64(len(rep.Kept))
	for len(s.stats.ChunkFetches) < len(rep.ChunkFetches) {
		s.stats.ChunkFetches = append(s.stats.ChunkFetches, 0)
	}
	for bkt, v := range rep.ChunkFetches {
		s.stats.ChunkFetches[bkt] += v
	}
	s.stats.KBytes += rep.KBytes(cs, dim)
	s.stats.VBytes += rep.VBytes(cs, dim)
	s.stats.BaselineKBytes += rep.BaselineKBytes(cs, dim)
	s.stats.BaselineVBytes += rep.BaselineVBytes(cs, dim)

	for j := range out {
		out[j] = 0
	}
	if len(rep.Kept) == 0 {
		// Degenerate instance (can only happen at extreme thresholds):
		// fall back to attending the newest token so the output is defined.
		// That fallback still moves one value vector off-chip, so it counts
		// toward Kept and VBytes like any kept token.
		copy(out, vals.Row(n - 1)[:dim])
		s.stats.Kept++
		s.stats.VBytes += int64(cs.VectorBytes(dim))
		return
	}
	// Weighted sum over kept tokens with quantized values.
	vRows, vScale := s.qs.values(vals, n, dim, k.Bits)
	for _, i := range rep.Kept {
		p := float32(rep.Prob(i))
		vRow := vRows[i]
		for j := 0; j < dim; j++ {
			out[j] += p * float32(vScale*float64(vRow[j]))
		}
	}
}

// QuantizedExact applies full softmax attention with the same 12-bit
// quantized arithmetic as the accelerator baseline (no pruning). Perplexity
// deltas against this kernel isolate the pruning effect from quantization.
type QuantizedExact struct {
	Bits   uint
	slots  []qeSlot
	runner qeRunner
}

type qeSlot struct {
	qs     quantScratch
	scores []float32
	probs  []float32
	stats  Stats
}

type qeRunner struct {
	k *QuantizedExact
	b model.AttendBatch
}

// Do implements exec.Tasks.
func (r *qeRunner) Do(t, slot int) { r.k.attendTask(&r.b, t, slot) }

// NewQuantizedExact returns the 12-bit exact kernel.
func NewQuantizedExact() *QuantizedExact { return &QuantizedExact{Bits: 12} }

// Stats returns statistics merged across executor slots (always baseline
// traffic).
func (k *QuantizedExact) Stats() Stats {
	var merged Stats
	for i := range k.slots {
		merged.Add(k.slots[i].stats)
	}
	return merged
}

// ResetStats clears every slot's statistics.
func (k *QuantizedExact) ResetStats() {
	for i := range k.slots {
		k.slots[i].stats = Stats{}
	}
}

// AttendLayer implements model.Kernel.
func (k *QuantizedExact) AttendLayer(batch model.AttendBatch) {
	for len(k.slots) < batch.Width() {
		k.slots = append(k.slots, qeSlot{})
	}
	k.runner.k = k
	k.runner.b = batch
	batch.Run(&k.runner)
}

// attendTask is the per-(row, head) hot path.
//
//topick:noalloc
func (k *QuantizedExact) attendTask(b *model.AttendBatch, t, slot int) {
	s := &k.slots[slot]
	q, out := b.TaskQ(t), b.TaskOut(t)
	keys, vals := b.Keys[t], b.Vals[t]
	n, dim := b.TaskN(t), b.HeadDim
	slope := b.TaskSlope(t)
	s.scores = tensor.Grow(s.scores, n)
	s.probs = tensor.Grow(s.probs, n)
	scores := s.scores
	probs := s.probs
	kRows, kScale := s.qs.keys(keys, n, dim, k.Bits)
	vRows, vScale := s.qs.values(vals, n, dim, k.Bits)
	qq := s.qs.query(q, k.Bits)
	c := float64(b.Scale) * qq.Scale * kScale
	for i := 0; i < n; i++ {
		scores[i] = float32(c*float64(fixed.Dot(qq.Data, kRows[i]))) - slope*float32(n-1-i)
	}
	tensor.Softmax(probs, scores)
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < n; i++ {
		p := probs[i]
		vRow := vRows[i]
		for j := 0; j < dim; j++ {
			out[j] += p * float32(vScale*float64(vRow[j]))
		}
	}
	cs := fixed.ChunkSpec{TotalBits: k.Bits, ChunkBits: k.Bits}
	s.stats.Instances++
	s.stats.Tokens += int64(n)
	s.stats.Kept += int64(n)
	bytes := int64(n) * int64(cs.VectorBytes(dim))
	s.stats.KBytes += bytes
	s.stats.VBytes += bytes
	s.stats.BaselineKBytes += bytes
	s.stats.BaselineVBytes += bytes
}

// Oracle prunes tokens whose exact probability is at or below the
// threshold. It cannot save K traffic (it needs every score) but bounds the
// achievable V pruning for any sound threshold method.
type Oracle struct {
	Threshold float64
	Bits      uint
	slots     []orSlot
	runner    orRunner
}

type orSlot struct {
	qs      quantScratch
	scores  []float32
	probs   []float32
	keptIdx []int
	stats   Stats
}

type orRunner struct {
	k *Oracle
	b model.AttendBatch
}

// Do implements exec.Tasks.
func (r *orRunner) Do(t, slot int) { r.k.attendTask(&r.b, t, slot) }

// NewOracle returns an oracle pruning kernel.
func NewOracle(threshold float64) *Oracle { return &Oracle{Threshold: threshold, Bits: 12} }

// Stats returns statistics merged across executor slots.
func (k *Oracle) Stats() Stats {
	var merged Stats
	for i := range k.slots {
		merged.Add(k.slots[i].stats)
	}
	return merged
}

// ResetStats clears every slot's statistics.
func (k *Oracle) ResetStats() {
	for i := range k.slots {
		k.slots[i].stats = Stats{}
	}
}

// AttendLayer implements model.Kernel.
func (k *Oracle) AttendLayer(batch model.AttendBatch) {
	for len(k.slots) < batch.Width() {
		k.slots = append(k.slots, orSlot{})
	}
	k.runner.k = k
	k.runner.b = batch
	batch.Run(&k.runner)
}

// attendTask is the per-(row, head) hot path.
//
//topick:noalloc
func (k *Oracle) attendTask(b *model.AttendBatch, t, slot int) {
	s := &k.slots[slot]
	q, out := b.TaskQ(t), b.TaskOut(t)
	keys, vals := b.Keys[t], b.Vals[t]
	n, dim := b.TaskN(t), b.HeadDim
	slope := b.TaskSlope(t)
	s.scores = tensor.Grow(s.scores, n)
	s.probs = tensor.Grow(s.probs, n)
	scores := s.scores
	probs := s.probs
	kRows, kScale := s.qs.keys(keys, n, dim, k.Bits)
	vRows, vScale := s.qs.values(vals, n, dim, k.Bits)
	qq := s.qs.query(q, k.Bits)
	c := float64(b.Scale) * qq.Scale * kScale
	for i := 0; i < n; i++ {
		scores[i] = float32(c*float64(fixed.Dot(qq.Data, kRows[i]))) - slope*float32(n-1-i)
	}
	tensor.Softmax(probs, scores)

	keptIdx := tensor.Grow(s.keptIdx, n)[:0]
	var keptMass float64
	for i := 0; i < n; i++ {
		if float64(probs[i]) > k.Threshold {
			keptIdx = append(keptIdx, i)
			keptMass += float64(probs[i])
		}
	}
	if len(keptIdx) == 0 {
		// Threshold above the max probability: keep the argmax token.
		best := tensor.Argmax(probs)
		keptIdx = append(keptIdx, best)
		keptMass = float64(probs[best])
	}
	s.keptIdx = keptIdx
	for j := range out {
		out[j] = 0
	}
	for _, i := range keptIdx {
		p := float32(float64(probs[i]) / keptMass)
		vRow := vRows[i]
		for j := 0; j < dim; j++ {
			out[j] += p * float32(vScale*float64(vRow[j]))
		}
	}

	cs := fixed.ChunkSpec{TotalBits: k.Bits, ChunkBits: k.Bits}
	vecBytes := int64(cs.VectorBytes(dim))
	s.stats.Instances++
	s.stats.Tokens += int64(n)
	s.stats.Kept += int64(len(keptIdx))
	s.stats.KBytes += int64(n) * vecBytes
	s.stats.VBytes += int64(len(keptIdx)) * vecBytes
	s.stats.BaselineKBytes += int64(n) * vecBytes
	s.stats.BaselineVBytes += int64(n) * vecBytes
}
