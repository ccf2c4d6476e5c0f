package serve

import (
	"errors"
	"time"

	"tokenpicker/internal/exec"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
)

// batchLoop is the iteration-level scheduler (Config.MaxBatchTokens > 0):
// the single goroutine that, every iteration, drains up to MaxBatchTokens
// token rows from the run queue, runs them as one BatchEngine step, and
// routes each session's outcome through exactly the same bookkeeping the
// per-session dispatch path uses — advance/finish, the preemption ladder,
// prefix adoption and publication, tracing and metrics — so the two modes
// differ only in how compute is scheduled, never in what tokens come out.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	var kernel model.Kernel
	if s.cfg.NewKernel != nil {
		kernel = s.cfg.NewKernel()
	}
	r := &batchRunner{
		s:      s,
		eng:    model.NewBatchEngine(s.params),
		kernel: kernel,
		ex:     s.execs[0],
	}
	var batch []*session
	for {
		batch = s.sched.popBatch(batch[:0], s.cfg.MaxBatchTokens, s.cfg.PromptChunk)
		if batch == nil {
			return
		}
		n := len(batch)
		r.iterate(batch)
		if sk, ok := kernel.(statKernel); ok {
			delta := sk.Stats()
			sk.ResetStats()
			s.mu.Lock()
			s.agg.Add(delta)
			s.mu.Unlock()
		}
		s.sched.endRunN(n)
	}
}

// batchRunner owns the iteration scratch: entry and owner slices are reused
// across iterations so the steady-state batched decode path allocates
// nothing.
type batchRunner struct {
	s       *Server
	eng     *model.BatchEngine
	kernel  model.Kernel
	ex      exec.Executor
	entries []model.BatchEntry
	owners  []*session
}

// iterate advances every session in batch by one iteration: decode and
// replay sessions by one token row, prefilling sessions by one prompt chunk.
// Sessions that neither finished nor parked are pushed back onto the run
// queue, behind whatever arrived while the iteration ran.
func (r *batchRunner) iterate(batch []*session) {
	s := r.s
	r.entries = r.entries[:0]
	r.owners = r.owners[:0]

	// Pre-step bookkeeping, identical to the top of dispatch: resume trace,
	// first-dispatch accounting, cancellation. Survivors are compacted in
	// place; canceled sessions finish here and take no part in the step.
	live := batch[:0]
	for _, sess := range batch {
		if sess.parked {
			sess.parked = false
			s.trace(sess, obs.KindResume, int32(sess.generated), 0, 0, 0)
		}
		if !sess.started {
			sess.started = true
			s.met.QueueWait.Observe(time.Since(sess.submitted).Seconds())
			s.trace(sess, obs.KindAdmitted, 0, 0, 0, 0)
		}
		if err := sess.ctx.Err(); err != nil {
			s.finish(sess, Result{Reason: ReasonCanceled, Err: err})
			continue
		}
		live = append(live, sess)
	}

	// Build the iteration's entries: decode and replay rows first, prefill
	// chunks after — the contiguous two-phase layout BatchEngine requires.
	// Every entry's token slice is a view into session-owned storage, so
	// assembly allocates nothing once the entry slice has grown.
	for _, sess := range live {
		if sess.promptPos < len(sess.req.Prompt) {
			continue
		}
		if sess.replayPos < sess.replayEnd {
			// Preemption replay: re-consume an already-emitted token through
			// the generation kernel — the same compute path that produced it,
			// so the KV rows rebuild bit-identically — without emitting.
			r.entries = append(r.entries, model.BatchEntry{
				Dec:    sess.dec,
				Tokens: sess.gen()[sess.replayPos : sess.replayPos+1],
			})
		} else {
			// penCtx's tail is sess.next: the pending token advance queued.
			r.entries = append(r.entries, model.BatchEntry{
				Dec:        sess.dec,
				Tokens:     sess.penCtx[len(sess.penCtx)-1:],
				NeedLogits: true,
			})
		}
		r.owners = append(r.owners, sess)
	}
	for _, sess := range live {
		if sess.promptPos >= len(sess.req.Prompt) {
			continue
		}
		if sess.promptPos == 0 && sess.adopted == 0 && s.prefixes != nil {
			// Same late re-probe as the per-session prefill path: the index
			// may have filled while this session sat queued. Reset first — a
			// failed acquisition on an earlier attempt may have left stray
			// leases, and adoption needs the caches empty.
			sess.dec.Reset()
			s.adoptPrefix(sess, false)
		}
		end := sess.promptPos + s.cfg.PromptChunk
		if end > len(sess.req.Prompt) {
			end = len(sess.req.Prompt)
		}
		r.entries = append(r.entries, model.BatchEntry{
			Dec:     sess.dec,
			Tokens:  sess.req.Prompt[sess.promptPos:end],
			Prefill: true,
			// A session rebuilding after preemption sampled its pending
			// tokens long ago; only a first-time prefill samples here.
			NeedLogits: end == len(sess.req.Prompt) && sess.generated == 0,
		})
		r.owners = append(r.owners, sess)
	}
	if len(r.entries) == 0 {
		return
	}

	start := time.Now()
	r.eng.Step(r.entries, r.kernel, r.ex)
	s.met.BatchIteration.Observe(time.Since(start).Seconds())
	s.met.BatchIterations.Inc()

	// Post-process in entry order; token counters are published once per
	// iteration so the hot path takes the global mutex once, like the
	// per-quantum publication of the worker path.
	var stepped, replayed, prompted int64
	laddered := false
	for i := range r.entries {
		ent := &r.entries[i]
		sess := r.owners[i]
		if ent.Err != nil {
			// The entry consumed nothing. Pool exhaustion hits every entry of
			// the iteration at once, so only the first such entry walks the
			// reclamation ladder — whatever it freed (an evicted prefix, a
			// stolen victim, its own blocks) is exactly what the rest should
			// retry on. Walking the ladder per entry would act on stale
			// pressure and cascade into mass self-preemption or rejection.
			if errors.Is(ent.Err, ErrNoBlocks) && laddered {
				s.sched.push(sess)
				continue
			}
			if errors.Is(ent.Err, ErrNoBlocks) {
				laddered = true
			}
			if !s.storageErr(sess, ent.Err) {
				s.sched.push(sess)
			}
			continue
		}
		if ent.Prefill {
			consumed := len(ent.Tokens)
			sess.promptPos = sess.dec.Len()
			prompted += int64(consumed)
			s.met.PromptTokens.AddSlot(0, int64(consumed))
			s.trace(sess, obs.KindPrefillChunk, int32(sess.generated), int32(consumed), int32(sess.promptPos), 0)
			if sess.promptPos == len(sess.req.Prompt) {
				if s.prefixes != nil {
					s.prefixes.publish(sess.dec, sess.req.Prompt)
				}
				if sess.generated == 0 {
					if s.advance(sess, ent.Logits, 0) {
						continue
					}
				}
			}
			s.sched.push(sess)
			continue
		}
		if !ent.NeedLogits { // replay row
			sess.replayPos++
			sess.recomputed++
			replayed++
			s.met.Recomputed.AddSlot(0, 1)
			s.trace(sess, obs.KindReplayStep, int32(sess.generated), 0, int32(sess.dec.Len()), 0)
			s.sched.push(sess)
			continue
		}
		stepped++
		// Traced before advance: advance may finish the session, and finish
		// must stay its last trace event.
		s.trace(sess, obs.KindDecodeStep, int32(sess.generated+1), 1, int32(sess.dec.Len()), 0)
		if s.advance(sess, ent.Logits, 0) {
			continue
		}
		s.sched.push(sess)
	}
	// Batch-shape metrics count rows that actually advanced: an entry that
	// failed its block lease occupied an assembly slot but consumed no
	// tokens, and the row counters must keep reconciling with the usage
	// counters (decode+replay rows == generated-1+recomputed per clean
	// session, prefill rows == prompt tokens prefilled).
	if rows := stepped + replayed + prompted; rows > 0 {
		s.met.BatchRows.Observe(float64(rows))
		s.met.BatchDecodeRows.Add(stepped + replayed)
		s.met.BatchPrefillRows.Add(prompted)
	}
	if stepped > 0 || replayed > 0 || prompted > 0 {
		s.mu.Lock()
		s.genToks += stepped
		s.recompute += replayed
		s.prompted += prompted
		s.mu.Unlock()
	}
}
