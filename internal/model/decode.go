package model

import (
	"errors"
	"fmt"
	"math"

	"tokenpicker/internal/exec"
	"tokenpicker/internal/fixed"
	"tokenpicker/internal/tensor"
)

// ErrContextFull reports that a decoder has consumed MaxSeq tokens and
// cannot accept more. Serving code uses it to finish or evict a session
// instead of crashing a worker.
var ErrContextFull = errors.New("model: context full")

// AttendBatch is one batched slab of attention work for a single layer: one
// or more query rows, each carrying every head's query/output slice plus its
// own KV row sources and context length. A row is one (sequence, position)
// attention instance — the single-row case is a classic decode step; the
// multi-row case is the iteration-batched serving path, where the rows span
// all runnable sessions (decode rows) and the in-flight prefill chunks of
// pending prompts, so one kernel call amortizes attention work across the
// whole fleet.
//
// Tasks are (row, head) pairs, indexed row-major: task t = row*Heads + head.
// Tasks are independent — task t reads TaskQ(t)/Keys[t]/Vals[t] and writes
// TaskOut(t) only — so a kernel may run them in any order or in parallel on
// Exec without changing a single output bit.
type AttendBatch struct {
	Layer   int   // layer index (kernels with per-layer state key on it)
	N       int   // single-row batches: valid context rows; the query is position N-1
	Rows    int   // query rows; 0 or 1 means single-row (N applies to every task)
	Ns      []int // multi-row batches: per-row context length (len == Rows)
	Heads   int
	HeadDim int
	Scale   float32   // score scale, 1/sqrt(HeadDim)
	Slopes  []float32 // per-head ALiBi slope: raw score_i -= Slopes[h]*(n-1-i)
	// Q and Out are packed (row, head)-major: task t owns
	// [t*HeadDim, (t+1)*HeadDim) — for a single-row batch that degenerates
	// to the head-major layout of one decode step.
	Q, Out []float32
	// Keys and Vals hold each task's KV cache view, indexed row*Heads+head;
	// rows beyond the task's context length are stale. Single-row batches
	// index them by head, which is the same thing.
	Keys, Vals []tensor.RowSource
	// Exec schedules the tasks; nil means serial. Kernels must route every
	// task through Run so the executor choice is honoured.
	Exec exec.Executor
}

// NumRows returns the number of query rows (>= 1; the zero value of Rows
// means the legacy single-row layout).
func (b *AttendBatch) NumRows() int {
	if b.Rows <= 0 {
		return 1
	}
	return b.Rows
}

// NumTasks returns the number of independent (row, head) attention tasks.
func (b *AttendBatch) NumTasks() int { return b.NumRows() * b.Heads }

// TaskN returns the context length of task t's row: attention spans rows
// [0, TaskN(t)) of Keys[t]/Vals[t] and the query sits at position TaskN(t)-1.
func (b *AttendBatch) TaskN(t int) int {
	if b.Ns == nil {
		return b.N
	}
	return b.Ns[t/b.Heads]
}

// TaskSlope returns task t's ALiBi slope (slopes are per head, shared by
// every row).
func (b *AttendBatch) TaskSlope(t int) float32 { return b.Slopes[t%b.Heads] }

// TaskQ returns task t's query slice.
func (b *AttendBatch) TaskQ(t int) []float32 {
	return b.Q[t*b.HeadDim : (t+1)*b.HeadDim]
}

// TaskOut returns task t's output slice.
func (b *AttendBatch) TaskOut(t int) []float32 {
	return b.Out[t*b.HeadDim : (t+1)*b.HeadDim]
}

// HeadQ returns head h's query slice of a single-row batch.
func (b *AttendBatch) HeadQ(h int) []float32 { return b.TaskQ(h) }

// HeadOut returns head h's output slice of a single-row batch.
func (b *AttendBatch) HeadOut(h int) []float32 { return b.TaskOut(h) }

// Width returns the number of scratch slots the batch's executor may use.
func (b *AttendBatch) Width() int {
	if b.Exec == nil {
		return 1
	}
	return b.Exec.Width()
}

// Run schedules one task per (row, head) pair on the batch's executor; the
// work-stealing pool spreads rows×heads over its slots, so wide multi-row
// batches keep every core busy even on few-head models.
func (b *AttendBatch) Run(tasks exec.Tasks) {
	if b.Exec == nil {
		exec.Serial{}.Run(b.NumTasks(), tasks)
		return
	}
	b.Exec.Run(b.NumTasks(), tasks)
}

// Kernel computes one layer's attention for a batch of query rows.
// Implementations range from exact softmax to the Token-Picker estimator.
//
// AttendLayer receives the whole layer as a batch and must produce, for each
// (row, head) task, exactly the output a task-at-a-time serial evaluation
// would: per-task work goes through batch.Run so the configured executor can
// spread rows×heads over cores, per-slot scratch keeps concurrent tasks from
// sharing mutable state, and any cross-task accumulation (statistics,
// SpAtten importance) is sharded per slot or merged in deterministic task
// order. Multi-row batches may mix rows from different sequences (the
// iteration-batched serving path does), so kernels eligible for serving must
// not keep per-sequence state across calls beyond cache-owned side-cars.
type Kernel interface {
	AttendLayer(batch AttendBatch)
}

// AttendOne runs a single-head attention instance through k: a one-head
// batch on the serial executor. Tests and experiment probes use it; the
// decoder always submits whole layers.
func AttendOne(k Kernel, out, q []float32, keys, vals tensor.RowSource, n int, scale, slope float32, layer int) {
	k.AttendLayer(AttendBatch{
		Layer:   layer,
		N:       n,
		Heads:   1,
		HeadDim: len(q),
		Scale:   scale,
		Slopes:  []float32{slope},
		Q:       q,
		Out:     out,
		Keys:    []tensor.RowSource{keys},
		Vals:    []tensor.RowSource{vals},
	})
}

// ExactKernel is the reference full-softmax attention used during the prompt
// phase and by the float baseline.
type ExactKernel struct {
	slots  []exactSlot
	runner exactRunner
}

// exactSlot is one executor slot's scratch.
type exactSlot struct {
	scores []float32
	probs  []float32
}

// exactRunner adapts the kernel to exec.Tasks without per-call allocation.
type exactRunner struct {
	k *ExactKernel
	b AttendBatch
}

// Do implements exec.Tasks.
func (r *exactRunner) Do(t, slot int) { r.k.attendTask(&r.b, t, slot) }

// AttendLayer implements Kernel with exact float32 softmax attention.
func (k *ExactKernel) AttendLayer(batch AttendBatch) {
	for len(k.slots) < batch.Width() {
		k.slots = append(k.slots, exactSlot{})
	}
	k.runner.k = k
	k.runner.b = batch
	batch.Run(&k.runner)
}

func (k *ExactKernel) attendTask(b *AttendBatch, t, slot int) {
	s := &k.slots[slot]
	n := b.TaskN(t)
	s.scores = tensor.Grow(s.scores, n)
	s.probs = tensor.Grow(s.probs, n)
	scores := s.scores
	probs := s.probs
	q, out := b.TaskQ(t), b.TaskOut(t)
	keys, vals := b.Keys[t], b.Vals[t]
	slope := b.TaskSlope(t)
	for i := 0; i < n; i++ {
		scores[i] = b.Scale*tensor.Dot(q, keys.Row(i)[:len(q)]) - slope*float32(n-1-i)
	}
	tensor.Softmax(probs, scores)
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < n; i++ {
		tensor.Axpy(probs[i], vals.Row(i)[:len(out)], out)
	}
}

// Scores computes the raw attention scores without the softmax; experiment
// code uses this to inspect distributions (paper Fig. 3).
func Scores(q []float32, keys tensor.RowSource, n int, scale, slope float32) []float32 {
	scores := make([]float32, n)
	for i := 0; i < n; i++ {
		scores[i] = scale*tensor.Dot(q, keys.Row(i)[:len(q)]) - slope*float32(n-1-i)
	}
	return scores
}

// KVCache is the per-(layer, head) key or value store of a decoder session.
// Rows are HeadDim wide; row i is written once (when token i is consumed)
// and read by every later attention call. Implementations may keep rows
// dense or lease fixed-size blocks from a shared pool.
type KVCache interface {
	tensor.RowSource
	// EnsureLen makes rows [0, n) addressable, acquiring storage as
	// needed, and guarantees row n-1 is privately writable: callers write
	// rows strictly append-only (row n-1 right after EnsureLen(n)), so
	// implementations backed by shared storage — e.g. prefix blocks adopted
	// from a serving pool — copy-on-write the affected storage here, before
	// the write lands. It returns ErrContextFull when n exceeds the
	// session's context budget, or a pool-specific error when storage is
	// exhausted. Rows made addressable by a failed call may remain
	// allocated.
	EnsureLen(n int) error
	// Truncate drops rows [n, ...) but keeps the cache usable: Truncate(0)
	// clears the cache for a new sequence (pooled implementations return all
	// their blocks), a partial truncate rewinds the sequence to a shared
	// prefix of n rows (a reference decoder returning to a common system
	// prompt), releasing whole trailing blocks and keeping the quantized
	// side-car's incremental invariants intact. Rows [0, n) must remain
	// exactly as written.
	Truncate(n int)
	// Release returns all storage; the cache must not be used afterwards.
	Release()
}

// CacheProvider allocates the 2*Layers*Heads KV caches behind a decoder.
// The serving engine installs a block-paged pooled provider; the default
// provider grows dense buffers on demand.
type CacheProvider interface {
	NewKVCache(maxSeq, headDim int) KVCache
}

// denseCache is the default KVCache: a dense buffer that starts small and
// doubles up to maxSeq rows, so short sessions never pay for the full
// context window. It carries a quantized side-car (fixed.CacheQuantizer) so
// quantizing attention kernels pay only for rows appended since their last
// call instead of re-quantizing the whole context every decode step.
type denseCache struct {
	data    []float32
	rows    int
	headDim int
	maxSeq  int
	qc      fixed.QuantCache
}

// denseInitRows is the initial row capacity of a dense cache.
const denseInitRows = 64

func (c *denseCache) Row(r int) []float32 {
	return c.data[r*c.headDim : (r+1)*c.headDim]
}

func (c *denseCache) EnsureLen(n int) error {
	if n > c.maxSeq {
		return ErrContextFull
	}
	if n <= c.rows {
		return nil
	}
	rows := c.rows
	if rows == 0 {
		rows = denseInitRows
	}
	for rows < n {
		rows *= 2
	}
	if rows > c.maxSeq {
		rows = c.maxSeq
	}
	grown := make([]float32, rows*c.headDim)
	copy(grown, c.data)
	c.data = grown
	c.rows = rows
	return nil
}

// QuantCache implements fixed.CacheQuantizer: rows [0, n) are immutable
// between Truncate calls, which is exactly the append-only contract the
// side-car memo needs.
func (c *denseCache) QuantCache() *fixed.QuantCache { return &c.qc }

func (c *denseCache) Truncate(n int) {
	// The float rows need no work: validity is bounded by the decoder's
	// consumed count, and a later write to row n lands on the same storage.
	// Only the quantized memo must forget the dropped rows.
	if n <= 0 {
		c.qc.Invalidate()
		return
	}
	c.qc.Truncate(n)
}

func (c *denseCache) Release() {
	c.data = nil
	c.rows = 0
	c.qc.Release()
}

// denseProvider is the default CacheProvider.
type denseProvider struct{}

func (denseProvider) NewKVCache(maxSeq, headDim int) KVCache {
	return &denseCache{headDim: headDim, maxSeq: maxSeq}
}

// headCache is the KV cache pair for one (layer, head).
type headCache struct {
	K, V KVCache
}

// Decoder runs token-by-token generation with a KV cache, delegating the
// attention weighted-sum to a Kernel. The prompt phase always uses exact
// attention (the paper preloads all K/V on-chip during prompt and applies
// pruning only to the memory-bound generation phase).
//
// A Decoder is not goroutine-safe: it carries mutable scratch and so do the
// kernels plugged into it. Concurrent sessions each need their own Decoder
// (sharing one read-only *Params is fine). The Exec field chooses the
// intra-step executor the decoder hands to its kernels: nil or exec.Serial
// walks heads in order, an exec.Pool runs the heads of each layer across
// cores (prompt and generation phases alike) with bit-identical results.
type Decoder struct {
	P      *Params
	Kernel Kernel
	Exec   exec.Executor // intra-step head executor; nil = serial
	n      int           // tokens consumed so far
	caches [][]headCache
	exact  ExactKernel

	// Per-layer KV views and per-head slopes, prebuilt so the per-step
	// batch assembly allocates nothing.
	keySrc [][]tensor.RowSource
	valSrc [][]tensor.RowSource
	slopes []float32

	// scratch buffers
	x, h, attnOut, tmp []float32
	ffnH               []float32
	q                  []float32
	logits             []float32
}

// NewDecoder creates a decoder with the given attention kernel for the
// generation phase. kernel may be nil, which means exact attention
// everywhere. KV storage uses the default on-demand dense provider.
func NewDecoder(p *Params, kernel Kernel) *Decoder {
	return NewDecoderWith(p, kernel, nil)
}

// NewDecoderWith creates a decoder whose KV caches come from the given
// provider (nil = default dense provider). The serving engine passes a
// pooled block-paged provider here so thousands of short sessions share
// recycled storage.
func NewDecoderWith(p *Params, kernel Kernel, prov CacheProvider) *Decoder {
	if prov == nil {
		prov = denseProvider{}
	}
	d := p.Cfg.DModel()
	dec := &Decoder{
		P:       p,
		Kernel:  kernel,
		x:       make([]float32, d),
		h:       make([]float32, d),
		attnOut: make([]float32, d),
		tmp:     make([]float32, d),
		ffnH:    make([]float32, p.Cfg.FFNDim()),
		q:       make([]float32, d),
		logits:  make([]float32, p.Cfg.VocabSize),
	}
	dec.caches = make([][]headCache, p.Cfg.Layers)
	dec.keySrc = make([][]tensor.RowSource, p.Cfg.Layers)
	dec.valSrc = make([][]tensor.RowSource, p.Cfg.Layers)
	for l := range dec.caches {
		dec.caches[l] = make([]headCache, p.Cfg.Heads)
		dec.keySrc[l] = make([]tensor.RowSource, p.Cfg.Heads)
		dec.valSrc[l] = make([]tensor.RowSource, p.Cfg.Heads)
		for h := range dec.caches[l] {
			dec.caches[l][h] = headCache{
				K: prov.NewKVCache(p.Cfg.MaxSeq, p.Cfg.HeadDim),
				V: prov.NewKVCache(p.Cfg.MaxSeq, p.Cfg.HeadDim),
			}
			dec.keySrc[l][h] = dec.caches[l][h].K
			dec.valSrc[l][h] = dec.caches[l][h].V
		}
	}
	dec.slopes = make([]float32, p.Cfg.Heads)
	for h := range dec.slopes {
		dec.slopes[h] = p.Cfg.AlibiSlope(h)
	}
	return dec
}

// Reset clears the KV cache for a new sequence. Pooled caches return their
// blocks; the decoder stays usable.
func (dec *Decoder) Reset() { dec.Rollback(0) }

// Rollback truncates the consumed sequence to n tokens, discarding the KV
// rows (and quantized side-car state) of everything after: a decoder that
// serves many continuations of one shared prefix (say, a system prompt)
// rewinds to it instead of re-consuming it. Rows [0, n) stay bit-identical,
// so stepping a continuation after Rollback produces exactly what a fresh
// decoder fed the prefix and that continuation would. It panics when n
// exceeds the consumed length.
func (dec *Decoder) Rollback(n int) {
	if n < 0 || n > dec.n {
		panic(fmt.Sprintf("model: Rollback(%d) outside consumed length %d", n, dec.n))
	}
	if n == dec.n && n != 0 {
		return
	}
	dec.n = n
	for _, layer := range dec.caches {
		for _, c := range layer {
			c.K.Truncate(n)
			c.V.Truncate(n)
		}
	}
}

// Release returns all KV storage to its provider. The decoder must not be
// used afterwards; serving sessions call this on completion so the pool can
// recycle their blocks.
func (dec *Decoder) Release() {
	dec.n = 0
	for _, layer := range dec.caches {
		for _, c := range layer {
			c.K.Release()
			c.V.Release()
		}
	}
}

// Len returns the number of tokens consumed.
func (dec *Decoder) Len() int { return dec.n }

// AdoptPrefix seeds a fresh decoder with n context rows that are already
// materialized in its KV caches: the serving engine's prefix-sharing path
// installs cached, read-only prompt blocks (and their quantized side-car
// snapshots) into the caches of a new session and then calls this so the
// decoder treats those rows as consumed context — prefill resumes at
// position n instead of 0. The decoder must not have consumed any tokens
// yet, and the caller guarantees every cache already addresses rows [0, n)
// holding exactly the key/value rows an exact prefill of the same n tokens
// would produce (KV rows are deterministic in the token prefix, so adopted
// generation is bit-identical to recomputation).
func (dec *Decoder) AdoptPrefix(n int) error {
	if dec.n != 0 {
		return fmt.Errorf("model: AdoptPrefix on a decoder with %d consumed tokens", dec.n)
	}
	if n < 0 || n > dec.P.Cfg.MaxSeq {
		return fmt.Errorf("%w: adopting %d rows (max %d)", ErrContextFull, n, dec.P.Cfg.MaxSeq)
	}
	dec.n = n
	return nil
}

// Cache exposes the K and V cache views for (layer, head); rows [0, Len)
// are valid. The experiment harness reads these to build accelerator traces.
func (dec *Decoder) Cache(layer, head int) (keys, vals tensor.RowSource) {
	c := dec.caches[layer][head]
	return c.K, c.V
}

// Prompt consumes the prompt tokens with exact attention, filling the KV
// cache. It returns the logits after the final prompt token. On error
// (ErrContextFull, or a pool allocation failure) the tokens before the
// failing one remain consumed.
//
//topick:noalloc
func (dec *Decoder) Prompt(tokens []int) ([]float32, error) {
	var logits []float32
	for _, t := range tokens {
		var err error
		logits, err = dec.step(t, &dec.exact)
		if err != nil {
			return nil, err
		}
	}
	return logits, nil
}

// Step consumes one generation-phase token and returns next-token logits.
// The configured kernel handles attention; nil means exact. It returns
// ErrContextFull once MaxSeq tokens have been consumed.
//
//topick:noalloc
func (dec *Decoder) Step(token int) ([]float32, error) {
	k := dec.Kernel
	if k == nil {
		k = &dec.exact
	}
	return dec.step(token, k)
}

// MustStep is Step for callers that have already bounded the sequence
// length; it panics on error.
func (dec *Decoder) MustStep(token int) []float32 {
	logits, err := dec.Step(token)
	if err != nil {
		panic(err)
	}
	return logits
}

// MustPrompt is Prompt for callers that have already bounded the sequence
// length; it panics on error.
func (dec *Decoder) MustPrompt(tokens []int) []float32 {
	logits, err := dec.Prompt(tokens)
	if err != nil {
		panic(err)
	}
	return logits
}

// ensureRows acquires storage for rows [0, n) in every KV cache before any
// state is touched, so a failed acquisition leaves the decoder consistent
// and retryable (over-extended caches are harmless: validity is bounded by
// dec.n).
func (dec *Decoder) ensureRows(n int) error {
	for _, layer := range dec.caches {
		for _, c := range layer {
			if err := c.K.EnsureLen(n); err != nil {
				return err
			}
			if err := c.V.EnsureLen(n); err != nil {
				return err
			}
		}
	}
	return nil
}

func (dec *Decoder) step(token int, kernel Kernel) ([]float32, error) {
	cfg := dec.P.Cfg
	if token < 0 || token >= cfg.VocabSize {
		panic(fmt.Sprintf("model: token %d out of vocab range", token))
	}
	if dec.n >= cfg.MaxSeq {
		//topick:alloc-ok error construction on the context-full rejection path
		return nil, fmt.Errorf("%w: %d tokens (max %d)", ErrContextFull, dec.n, cfg.MaxSeq)
	}
	pos := dec.n
	if err := dec.ensureRows(pos + 1); err != nil {
		return nil, err
	}
	hd := cfg.HeadDim
	scale := float32(1 / math.Sqrt(float64(hd)))

	copy(dec.x, dec.P.TokEmb.Row(token))
	for l, b := range dec.P.Blocks {
		// Attention sublayer.
		tensor.LayerNorm(dec.h, dec.x, b.Ln1G, b.Ln1B, cfg.Eps)
		tensor.MatVec(dec.q, b.Wq, dec.h)
		tensor.Add(dec.q, dec.q, b.Bq)
		tensor.MatVec(dec.tmp, b.Wk, dec.h)
		tensor.Add(dec.tmp, dec.tmp, b.Bk)
		for hIdx := 0; hIdx < cfg.Heads; hIdx++ {
			copy(dec.caches[l][hIdx].K.Row(pos), dec.tmp[hIdx*hd:(hIdx+1)*hd])
		}
		tensor.MatVec(dec.tmp, b.Wv, dec.h)
		tensor.Add(dec.tmp, dec.tmp, b.Bv)
		for hIdx := 0; hIdx < cfg.Heads; hIdx++ {
			copy(dec.caches[l][hIdx].V.Row(pos), dec.tmp[hIdx*hd:(hIdx+1)*hd])
		}
		kernel.AttendLayer(AttendBatch{
			Layer:   l,
			N:       pos + 1,
			Heads:   cfg.Heads,
			HeadDim: hd,
			Scale:   scale,
			Slopes:  dec.slopes,
			Q:       dec.q,
			Out:     dec.attnOut,
			Keys:    dec.keySrc[l],
			Vals:    dec.valSrc[l],
			Exec:    dec.Exec,
		})
		tensor.MatVec(dec.tmp, b.Wo, dec.attnOut)
		tensor.Add(dec.tmp, dec.tmp, b.Bo)
		tensor.Add(dec.x, dec.x, dec.tmp)

		// FFN sublayer.
		tensor.LayerNorm(dec.h, dec.x, b.Ln2G, b.Ln2B, cfg.Eps)
		tensor.MatVec(dec.ffnH, b.W1, dec.h)
		tensor.Add(dec.ffnH, dec.ffnH, b.B1)
		tensor.GELU(dec.ffnH)
		tensor.MatVec(dec.tmp, b.W2, dec.ffnH)
		tensor.Add(dec.tmp, dec.tmp, b.B2)
		tensor.Add(dec.x, dec.x, dec.tmp)
	}
	tensor.LayerNorm(dec.h, dec.x, dec.P.LnFG, dec.P.LnFB, cfg.Eps)
	tensor.MatVec(dec.logits, dec.P.TokEmb, dec.h)
	dec.n++
	return dec.logits, nil
}
