package model

import (
	"fmt"
	"math"

	"tokenpicker/internal/exec"
	"tokenpicker/internal/tensor"
)

// BatchEntry is one session's contribution to a batched iteration step: a
// decode row (one generation or replay token) or a prefill chunk (several
// consecutive prompt tokens advanced in layer lockstep). The iteration
// scheduler in internal/serve assembles one entry per runnable session and
// hands the whole set to BatchEngine.Step.
type BatchEntry struct {
	// Dec is the session's decoder; its KV caches receive the new rows and
	// its consumed-token count advances by len(Tokens) on success. A decoder
	// may appear in at most one entry per Step.
	Dec *Decoder
	// Tokens are consumed in order starting at Dec.Len(). Decode entries
	// carry exactly one token; prefill entries carry a chunk of the prompt.
	Tokens []int
	// Prefill marks prompt-phase entries: their rows attend with the exact
	// kernel (the paper prunes only the memory-bound generation phase), may
	// number more than one, and must come after every decode entry so the
	// engine can split the layer batch into two contiguous row ranges.
	Prefill bool
	// NeedLogits requests next-token logits after the entry's last token
	// (decode rows sampling a token; the prefill chunk that completes a
	// prompt). Rows that skip it also skip the final layer norm and the
	// vocabulary projection — the largest matmul of the step.
	NeedLogits bool

	// Logits is the output when NeedLogits was set: a view into engine-owned
	// storage, valid until the next Step. Nil when Err is set.
	Logits []float32
	// Err reports a per-entry storage failure (ErrContextFull, or a pool
	// allocation error): the entry consumed nothing and took no part in the
	// step, while the rest of the batch proceeded. The caller retries,
	// preempts, or finishes that session by its own policy.
	Err error
}

// BatchEngine runs one iteration-batched decoder step over many sessions:
// every entry's rows advance through the transformer together, layer by
// layer, with the projection and FFN stages executed as row-batched matmuls
// (tensor.MatVecRows — each weight matrix streams through memory once per
// iteration instead of once per session) and attention submitted as one
// multi-row AttendBatch per layer per phase kernel. Every row's arithmetic
// keeps the exact operation order of a sequential Decoder.Step/Prompt walk,
// so batched and unbatched execution produce bit-identical logits and KV
// rows.
//
// The engine owns the batched scratch; it is not goroutine-safe and, like a
// Decoder, must not be shared between concurrent Steps. Steady-state Step
// calls allocate nothing once the scratch has grown to the workload's row
// count.
type BatchEngine struct {
	p      *Params
	exact  ExactKernel
	slopes []float32

	rows []batchRow

	// Row-batched scratch, rows*d (or rows*FFNDim) packed row-major.
	x, h, q, attnOut, tmp []float32
	ffnH                  []float32
	logits                []float32

	// Per-layer attention views, refilled each layer without allocating.
	ns         []int
	keys, vals []tensor.RowSource
}

// batchRow is one query row of the current step.
type batchRow struct {
	entry int
	pos   int // context position this row occupies
	token int
}

// NewBatchEngine builds an iteration-batching engine over params. Entries
// passed to Step must use decoders built from the same params.
func NewBatchEngine(p *Params) *BatchEngine {
	e := &BatchEngine{p: p, slopes: make([]float32, p.Cfg.Heads)}
	for h := range e.slopes {
		e.slopes[h] = p.Cfg.AlibiSlope(h)
	}
	return e
}

// Step advances every entry by its tokens in one batched iteration. gen is
// the generation-phase attention kernel shared by all decode rows (nil means
// exact); prefill rows always use exact attention. ex schedules the
// rows×heads attention tasks (nil = serial). Decode entries must precede
// prefill entries. Per-entry storage failures land in BatchEntry.Err; the
// rest of the batch is unaffected.
//
//topick:noalloc
func (e *BatchEngine) Step(entries []BatchEntry, gen Kernel, ex exec.Executor) {
	cfg := e.p.Cfg
	e.rows = e.rows[:0]
	decodeRows := 0
	sawPrefill := false
	for i := range entries {
		ent := &entries[i]
		ent.Logits, ent.Err = nil, nil
		if ent.Dec == nil || len(ent.Tokens) == 0 {
			panic("model: batch entry needs a decoder and at least one token")
		}
		if ent.Dec.P != e.p {
			panic("model: batch entry decoder built from different params")
		}
		if ent.Prefill {
			sawPrefill = true
		} else {
			if sawPrefill {
				panic("model: decode entries must precede prefill entries")
			}
			if len(ent.Tokens) != 1 {
				panic(fmt.Sprintf("model: decode entry carries %d tokens, want 1", len(ent.Tokens)))
			}
		}
		for _, t := range ent.Tokens {
			if t < 0 || t >= cfg.VocabSize {
				panic(fmt.Sprintf("model: token %d out of vocab range", t))
			}
		}
		n := ent.Dec.n
		if n+len(ent.Tokens) > cfg.MaxSeq {
			//topick:alloc-ok error construction on the context-full rejection path
			ent.Err = fmt.Errorf("%w: %d tokens (max %d)", ErrContextFull, n, cfg.MaxSeq)
			continue
		}
		if err := ent.Dec.ensureRows(n + len(ent.Tokens)); err != nil {
			ent.Err = err
			continue
		}
		for j, t := range ent.Tokens {
			e.rows = append(e.rows, batchRow{entry: i, pos: n + j, token: t})
		}
		if !ent.Prefill {
			decodeRows++
		}
	}
	R := len(e.rows)
	if R == 0 {
		return
	}

	d := cfg.DModel()
	hd := cfg.HeadDim
	H := cfg.Heads
	scale := float32(1 / math.Sqrt(float64(hd)))
	e.x = tensor.Grow(e.x, R*d)
	e.h = tensor.Grow(e.h, R*d)
	e.q = tensor.Grow(e.q, R*d)
	e.attnOut = tensor.Grow(e.attnOut, R*d)
	e.tmp = tensor.Grow(e.tmp, R*d)
	e.ffnH = tensor.Grow(e.ffnH, R*cfg.FFNDim())
	e.ns = tensor.Grow(e.ns, R)
	e.keys = tensor.Grow(e.keys, R*H)
	e.vals = tensor.Grow(e.vals, R*H)

	for r, row := range e.rows {
		copy(e.x[r*d:(r+1)*d], e.p.TokEmb.Row(row.token))
		e.ns[r] = row.pos + 1
	}
	genKernel := gen
	if genKernel == nil {
		genKernel = &e.exact
	}

	for l, b := range e.p.Blocks {
		// Attention sublayer: row-batched QKV projections, KV rows appended
		// to each row's own caches, then one multi-row AttendBatch per phase.
		for r := 0; r < R; r++ {
			tensor.LayerNorm(e.h[r*d:(r+1)*d], e.x[r*d:(r+1)*d], b.Ln1G, b.Ln1B, cfg.Eps)
		}
		tensor.MatVecRows(e.q, b.Wq, e.h, R)
		for r := 0; r < R; r++ {
			tensor.Add(e.q[r*d:(r+1)*d], e.q[r*d:(r+1)*d], b.Bq)
		}
		tensor.MatVecRows(e.tmp, b.Wk, e.h, R)
		for r, row := range e.rows {
			dec := entries[row.entry].Dec
			tensor.Add(e.tmp[r*d:(r+1)*d], e.tmp[r*d:(r+1)*d], b.Bk)
			for hIdx := 0; hIdx < H; hIdx++ {
				copy(dec.caches[l][hIdx].K.Row(row.pos), e.tmp[r*d+hIdx*hd:r*d+(hIdx+1)*hd])
			}
		}
		tensor.MatVecRows(e.tmp, b.Wv, e.h, R)
		for r, row := range e.rows {
			dec := entries[row.entry].Dec
			tensor.Add(e.tmp[r*d:(r+1)*d], e.tmp[r*d:(r+1)*d], b.Bv)
			for hIdx := 0; hIdx < H; hIdx++ {
				copy(dec.caches[l][hIdx].V.Row(row.pos), e.tmp[r*d+hIdx*hd:r*d+(hIdx+1)*hd])
			}
			copy(e.keys[r*H:(r+1)*H], entries[row.entry].Dec.keySrc[l])
			copy(e.vals[r*H:(r+1)*H], entries[row.entry].Dec.valSrc[l])
		}
		e.attend(l, 0, decodeRows, scale, genKernel, ex)
		e.attend(l, decodeRows, R, scale, &e.exact, ex)
		tensor.MatVecRows(e.tmp, b.Wo, e.attnOut, R)
		for r := 0; r < R; r++ {
			tensor.Add(e.tmp[r*d:(r+1)*d], e.tmp[r*d:(r+1)*d], b.Bo)
			tensor.Add(e.x[r*d:(r+1)*d], e.x[r*d:(r+1)*d], e.tmp[r*d:(r+1)*d])
		}

		// FFN sublayer, row-batched.
		F := cfg.FFNDim()
		for r := 0; r < R; r++ {
			tensor.LayerNorm(e.h[r*d:(r+1)*d], e.x[r*d:(r+1)*d], b.Ln2G, b.Ln2B, cfg.Eps)
		}
		tensor.MatVecRows(e.ffnH, b.W1, e.h, R)
		for r := 0; r < R; r++ {
			tensor.Add(e.ffnH[r*F:(r+1)*F], e.ffnH[r*F:(r+1)*F], b.B1)
			tensor.GELU(e.ffnH[r*F : (r+1)*F])
		}
		tensor.MatVecRows(e.tmp, b.W2, e.ffnH, R)
		for r := 0; r < R; r++ {
			tensor.Add(e.tmp[r*d:(r+1)*d], e.tmp[r*d:(r+1)*d], b.B2)
			tensor.Add(e.x[r*d:(r+1)*d], e.x[r*d:(r+1)*d], e.tmp[r*d:(r+1)*d])
		}
	}

	// Vocabulary projection for the rows that sample from it. Each
	// requesting entry's logits view stays valid until the next Step.
	V := cfg.VocabSize
	needed := 0
	for i := range entries {
		if entries[i].Err == nil && entries[i].NeedLogits {
			needed++
		}
	}
	e.logits = tensor.Grow(e.logits, needed*V)
	out := 0
	for r, row := range e.rows {
		ent := &entries[row.entry]
		if !ent.NeedLogits || row.pos != ent.Dec.n+len(ent.Tokens)-1 {
			continue
		}
		tensor.LayerNorm(e.h[r*d:(r+1)*d], e.x[r*d:(r+1)*d], e.p.LnFG, e.p.LnFB, cfg.Eps)
		ent.Logits = e.logits[out*V : (out+1)*V]
		tensor.MatVec(ent.Logits, e.p.TokEmb, e.h[r*d:(r+1)*d])
		out++
	}

	for i := range entries {
		if entries[i].Err == nil {
			entries[i].Dec.n += len(entries[i].Tokens)
		}
	}
}

// attend submits rows [lo, hi) as one multi-row AttendBatch through kernel.
func (e *BatchEngine) attend(layer, lo, hi int, scale float32, kernel Kernel, ex exec.Executor) {
	if hi <= lo {
		return
	}
	cfg := e.p.Cfg
	d := cfg.DModel()
	kernel.AttendLayer(AttendBatch{
		Layer:   layer,
		Rows:    hi - lo,
		Ns:      e.ns[lo:hi],
		Heads:   cfg.Heads,
		HeadDim: cfg.HeadDim,
		Scale:   scale,
		Slopes:  e.slopes,
		Q:       e.q[lo*d : hi*d],
		Out:     e.attnOut[lo*d : hi*d],
		Keys:    e.keys[lo*cfg.Heads : hi*cfg.Heads],
		Vals:    e.vals[lo*cfg.Heads : hi*cfg.Heads],
		Exec:    ex,
	})
}
