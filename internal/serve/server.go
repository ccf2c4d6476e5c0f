// Package serve is a continuous-batching inference engine over the
// Token-Picker decoder. Generation requests are admitted into a run queue
// and advanced at token granularity, so a new request starts decoding
// immediately instead of waiting for the batch in flight to drain. Two
// dispatch modes share every other subsystem (KV pool, prefix sharing,
// preemption ladder, metrics, tracing):
//
//   - Per-session workers (the default): each dispatch advances one session
//     by a prompt chunk or Quantum generation steps on one of a fixed pool
//     of worker goroutines, each owning its attention kernel.
//   - Iteration-level batching (Config.MaxBatchTokens > 0): one scheduler
//     goroutine assembles, per iteration, a single model.BatchEngine step
//     spanning all runnable sessions — every decode/replay session one row,
//     every pending prompt up to PromptChunk prefill rows — so attention
//     runs as one multi-row AttendBatch per layer and the FFN/projection
//     stages as row-batched matmuls. Tokens are bit-identical between the
//     two modes; the batched one amortizes weight traffic across the fleet.
//
// Every session owns a decoder whose KV caches are leased block-by-block
// from a shared Pool and recycled on completion. Per-session transfer
// statistics are aggregated fleet-wide, so the server reports the pruning
// ratio and off-chip-traffic savings of the whole workload, the
// multi-tenant regime the paper's memory-bound analysis targets.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/exec"
	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/sample"
)

// Admission errors.
var (
	ErrServerClosed = errors.New("serve: server closed")
	ErrBusy         = errors.New("serve: too many active sessions")
	ErrEmptyPrompt  = errors.New("serve: request needs a non-empty prompt")
	ErrBadToken     = errors.New("serve: prompt token out of vocabulary")
)

// FinishReason tells why a session stopped producing tokens.
type FinishReason string

const (
	// ReasonLength: the session produced its MaxTokens budget.
	ReasonLength FinishReason = "length"
	// ReasonContextFull: the model's context window filled up.
	ReasonContextFull FinishReason = "context_full"
	// ReasonCanceled: the request context was canceled or timed out.
	ReasonCanceled FinishReason = "canceled"
	// ReasonRejected: the KV pool ran out of blocks mid-flight and nothing
	// could be reclaimed (no idle cached prefixes to evict, no session to
	// preempt, preemption budget spent).
	ReasonRejected FinishReason = "rejected"
	// ReasonStop: the generated tail matched one of the request's stop
	// sequences; Result.StopSeq and Result.StopTokens identify which.
	ReasonStop FinishReason = "stop"
)

// Config sizes a Server. The zero value is usable: NumCPU workers, exact
// attention, and paper-ish defaults everywhere else.
type Config struct {
	// Workers is the number of decode workers (default NumCPU).
	Workers int
	// MaxSessions bounds concurrently admitted sessions (default 64).
	MaxSessions int
	// Quantum is how many generation steps a session advances per
	// dispatch before being requeued (default 1: token-level
	// interleaving, the finest-grained continuous batching).
	Quantum int
	// PromptChunk is how many prompt tokens are prefilled per dispatch,
	// so long prompts cannot starve running generations (default 32;
	// negative is rejected by Validate). Under iteration batching
	// (MaxBatchTokens > 0) it also caps the prefill rows one pending prompt
	// contributes to a single batched iteration, so the two knobs compose:
	// MaxBatchTokens bounds the whole iteration's row budget, PromptChunk
	// bounds any one prompt's share of it.
	PromptChunk int
	// MaxBatchTokens, when positive, switches the engine from per-session
	// dispatch to iteration-level batching: one scheduler goroutine
	// assembles, every iteration, a single batched step spanning all
	// runnable sessions — each decode or replay session contributes one
	// token row, each pending prompt up to PromptChunk prefill rows — and
	// runs it through a model.BatchEngine, so attention becomes one
	// multi-row AttendBatch per layer and the FFN/projection stages become
	// row-batched matmuls. The value is the iteration's token-row budget:
	// admission into an iteration stops once the next session would exceed
	// it (the first session is always admitted, so a prompt chunk longer
	// than the budget still makes progress). Generated tokens are
	// bit-identical with batching on or off. Zero keeps the per-session
	// worker loop; negative is rejected by Validate.
	MaxBatchTokens int
	// BlockRows is the KV pool block granularity in rows (default 32).
	BlockRows int
	// MaxBlocks bounds live pool blocks; 0 = unbounded.
	MaxBlocks int
	// DefaultMaxNew applies when a request leaves MaxTokens zero
	// (default 64).
	DefaultMaxNew int
	// HeadParallel is the intra-step head parallelism of each decode
	// worker: the heads of one attention layer run on this many executor
	// slots (1 = serial, the default; 0 is treated as 1). Every worker owns
	// its own executor, so the process runs up to Workers*HeadParallel
	// attention goroutines — size the product to the machine. Results are
	// bit-identical to serial execution regardless of the setting.
	HeadParallel int
	// SharePrefix enables prompt prefix sharing: the full BlockRows-sized
	// chunks of every prefilled prompt are published to an in-pool prefix
	// index, and a later Submit whose prompt starts with a cached chunk
	// chain adopts those KV blocks — and their quantized side-car
	// snapshots — read-only instead of re-running prefill over them. The
	// partial tail block past the last full chunk is shared too, with
	// copy-on-write at the first divergent append. Generated tokens are
	// bit-identical with sharing on or off; the win is admission-side:
	// prefill compute and time-to-first-token drop for every repeated
	// prefix (system prompts, chat history). Off by default.
	SharePrefix bool
	// MaxPreempts bounds how many times one session may be preempted —
	// its non-shared KV blocks released and its context scheduled for
	// cheap recomputation — before pool exhaustion finishes it
	// ReasonRejected. 0 means the default (3); negative disables
	// preemption entirely, restoring reject-on-exhaustion.
	MaxPreempts int
	// Tracer, when set, receives a typed span event for every lifecycle
	// transition of every session — submit, queueing, prefill chunks,
	// decode and replay steps, prefix adoptions, the whole preemption
	// ladder (preempt/park/resume), and the terminal finish (Detail is the
	// ReasonCode). Each event samples queue depth, dispatch concurrency,
	// and pool occupancy at emission. Recording is allocation-free, so the
	// tracer may stay attached in production; nil disables tracing with no
	// hot-path cost beyond one predictable branch.
	Tracer *obs.Tracer
	// Detokenize, when set, decodes a generated token id into its text
	// form; the engine stamps it onto every Event so transports (the SSE
	// front-end) can stream text without a second lookup. Must be
	// goroutine-safe and side-effect free.
	Detokenize func(token int) string
	// NewKernel builds one generation-phase attention kernel per worker;
	// nil means exact attention. Because one worker's kernel serves many
	// interleaved sessions, kernels must not carry state across Attend
	// calls beyond reusable scratch: the Token-Picker, quantized-exact
	// and oracle kernels qualify, the SpAtten cascade kernel does NOT
	// (it accumulates per-sequence token importance and needs a fresh
	// instance per generation). Kernels exposing Stats/ResetStats feed
	// the fleet-wide transfer report.
	NewKernel func() model.Kernel
}

// defaultBlockRows is the KV pool block granularity when Config.BlockRows is
// unset; PrefixKey falls back to it so router and index agree on chunking.
const defaultBlockRows = 32

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.Quantum <= 0 {
		c.Quantum = 1
	}
	if c.PromptChunk <= 0 {
		c.PromptChunk = 32
	}
	if c.BlockRows <= 0 {
		c.BlockRows = defaultBlockRows
	}
	if c.DefaultMaxNew <= 0 {
		c.DefaultMaxNew = 64
	}
	if c.HeadParallel <= 0 {
		c.HeadParallel = 1
	}
	if c.MaxPreempts == 0 {
		c.MaxPreempts = 3
	}
	return c
}

// Result is the terminal state of a session.
type Result struct {
	Reason FinishReason
	Err    error // non-nil for ReasonCanceled / ReasonRejected
	// Usage is the per-request token accounting: prompt and generated
	// counts, prefix-index rows adopted instead of prefilled, and tokens
	// re-consumed by preemption replay.
	Usage Usage
	// StopSeq indexes the GenerateRequest.Stop sequence that ended the
	// session when Reason == ReasonStop; -1 otherwise. StopTokens is the
	// matched sequence itself.
	StopSeq    int
	StopTokens []int
	// TTFT is the time from Submit to the first emitted token (zero if the
	// session finished without emitting). Recorded at emission inside the
	// engine, so it is immune to consumer scheduling delays.
	TTFT time.Duration
	// Elapsed is the time from Submit to session finish.
	Elapsed time.Duration
}

// session is one admitted request moving through the scheduler.
type session struct {
	id        uint64 // 1-based admission sequence, the trace session id
	rid       uint64 // FNV hash of the request's RequestID (0 = none)
	ctx       context.Context
	cancel    context.CancelFunc // releases the session's derived context
	req       GenerateRequest
	maxTokens int // effective generation budget (request or server default)
	dec       *model.Decoder
	stream    *Stream
	emit      chan<- Event
	sampler   *sample.Chain
	submitted time.Time
	firstTok  time.Time // zero until the first token is emitted
	lastTok   time.Time // previous emission (inter-token latency)
	started   bool      // first dispatch quantum has begun
	parked    bool      // sitting on (or just promoted off) the stalled list
	promptPos int       // prompt tokens consumed so far
	next      int       // next token to feed to Step (already emitted)
	generated int
	// penCtx is prompt plus emitted tokens: the history the sampler's
	// repetition penalty reads, whose generated tail (gen) preemption
	// replays. Capacity is reserved at admission, so appends never move it.
	penCtx []int

	adopted    int  // context rows adopted from the prefix index
	adoptedAll int  // cumulative adopted rows across preemption rebuilds
	recomputed int  // generated tokens re-consumed during replay
	hitCounted bool // this session already counted toward PrefixStats.Hits

	// Preemption state: gen()[replayPos:replayEnd] are emitted tokens whose
	// KV rows must be recomputed (through the generation kernel, so the
	// rebuild is bit-identical) before new tokens may be sampled. advance
	// never runs while replayPos < replayEnd, so the tail is stable during
	// replay by construction.
	replayPos int
	replayEnd int
	preempts  int // times this session has been preempted
}

// gen returns the emitted-token tail of the session history.
func (sess *session) gen() []int { return sess.penCtx[len(sess.req.Prompt):] }

// progress orders sessions for victim selection: consumed prompt tokens
// plus emitted tokens, i.e. how much work preemption would throw away.
func (sess *session) progress() int { return sess.promptPos + sess.generated }

// statKernel matches kernels that account their off-chip traffic.
type statKernel interface {
	Stats() attention.Stats
	ResetStats()
}

// Server is the continuous-batching engine.
type Server struct {
	cfg      Config
	params   *model.Params
	pool     *Pool
	prefixes *prefixIndex // nil unless Config.SharePrefix
	sched    scheduler
	execs    []exec.Executor // one head executor per worker, indexed by worker id
	met      *Metrics
	tracer   *obs.Tracer    // nil unless Config.Tracer
	wg       sync.WaitGroup // workers
	sessWG   sync.WaitGroup // in-flight sessions

	closeOnce sync.Once

	mu        sync.Mutex
	closed    bool
	active    int
	peak      int
	admitted  int64
	finished  map[FinishReason]int64
	prompted  int64
	genToks   int64
	recompute int64 // tokens re-consumed by preemption replay
	preempted int64 // preemption events
	agg       attention.Stats
}

// Report is a fleet-wide snapshot: session counts, token counts, peak
// concurrency, aggregated attention-transfer statistics, and pool state.
// Counts lag the currently executing quanta slightly until Close.
type Report struct {
	Admitted       int64
	Finished       map[FinishReason]int64
	PromptTokens   int64 // prompt tokens actually prefilled (adopted rows excluded)
	GenTokens      int64 // decode steps: one fewer than a session's emitted tokens, whose first comes from prefill (Metrics().Generated counts emissions)
	PeakConcurrent int
	// Preempted counts preemption events; RecomputeTokens counts the
	// generated tokens preempted sessions re-consumed while catching up.
	Preempted       int64
	RecomputeTokens int64
	Attn            attention.Stats
	Pool            PoolStats
	// Prefix is the prefix-sharing index accounting (zero when disabled).
	Prefix PrefixStats
	// Exec aggregates the head-parallel executors' slot accounting: tasks
	// run, tasks stolen, cumulative busy time (zero under serial execution).
	Exec exec.SlotStats
}

// Completed sums finished sessions across reasons.
func (r Report) Completed() int64 {
	var n int64
	for _, v := range r.Finished {
		n += v
	}
	return n
}

// NewServer builds a server over trained params and starts its workers (or,
// with Config.MaxBatchTokens set, its iteration-batching scheduler). The
// config must be valid: NewServer panics with the *ConfigError describing
// the offending field otherwise — call Config.Validate first when the
// values come from outside the program.
func NewServer(params *model.Params, cfg Config) *Server {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		params:   params,
		pool:     NewPool(cfg.BlockRows, params.Cfg.HeadDim, cfg.MaxBlocks),
		finished: make(map[FinishReason]int64),
	}
	if cfg.SharePrefix {
		s.prefixes = newPrefixIndex(s.pool, cfg.BlockRows, params.Cfg.Layers, params.Cfg.Heads)
	}
	s.sched.cond = sync.NewCond(&s.sched.mu)
	s.sched.resumeGate = s.pool.hasCapacity
	s.tracer = cfg.Tracer
	s.met = newMetrics(s)
	// Executors live on the server (not inside the worker goroutines) so the
	// metrics layer can read their slot accounting at scrape time.
	if cfg.MaxBatchTokens > 0 {
		// Iteration batching: one scheduler goroutine owns the whole fleet
		// and one wide executor spreads each iteration's rows×heads tasks
		// over the cores the worker pool would otherwise have used.
		s.execs = []exec.Executor{exec.New(cfg.Workers * cfg.HeadParallel)}
		s.wg.Add(1)
		go s.batchLoop()
		return s
	}
	s.execs = make([]exec.Executor, cfg.Workers)
	for i := range s.execs {
		s.execs[i] = exec.New(cfg.HeadParallel)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

// Pool exposes the server's KV block pool (read its Stats for reporting).
func (s *Server) Pool() *Pool { return s.pool }

// Metrics exposes the engine's metric families (always non-nil); render them
// with Metrics().Registry.WritePrometheus or read individual counters and
// histograms directly.
func (s *Server) Metrics() *Metrics { return s.met }

// Tracer returns the lifecycle tracer configured at construction, nil when
// tracing is disabled.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// MaxSessions returns the server's admission bound after defaulting — the
// saturation threshold a fleet router spills at.
func (s *Server) MaxSessions() int { return s.cfg.MaxSessions }

// DefaultMaxNew returns the effective generation budget of requests that
// leave MaxTokens zero, after defaulting.
func (s *Server) DefaultMaxNew() int { return s.cfg.DefaultMaxNew }

// ActiveSessions returns how many admitted sessions have not yet finished:
// a single locked point read (no allocation), cheap enough for a fleet
// router to poll on every routing decision.
//
//topick:noalloc
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	n := s.active
	s.mu.Unlock()
	return n
}

// hashRequestID folds a caller-supplied request id into the uint64 that
// rides trace events (FNV-1a over the raw bytes; empty id hashes to 0 =
// "none"). The same id hashes identically on every replica, which is what
// makes multi-replica trace correlation work.
func hashRequestID(id string) uint64 {
	if id == "" {
		return 0
	}
	h := fnvOffset
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime
	}
	return h
}

// execStats sums the slot accounting of every worker's head executor.
func (s *Server) execStats() exec.SlotStats {
	var total exec.SlotStats
	for _, ex := range s.execs {
		total.Add(exec.StatsOf(ex))
	}
	return total
}

// trace records one lifecycle event for sess, sampling queue depth, dispatch
// concurrency, and pool occupancy at emission. Callers must hold no engine
// locks. No-op without a tracer.
func (s *Server) trace(sess *session, kind obs.Kind, step, tokens, rows, detail int32) {
	if s.tracer == nil {
		return
	}
	queued, stalled, running := s.sched.depths()
	ps := s.pool.Stats()
	s.tracer.Record(obs.Event{
		Session: sess.id,
		ReqID:   sess.rid,
		Kind:    kind,
		Step:    step,
		Tokens:  tokens,
		Rows:    rows,
		Batch:   int32(running),
		Queue:   int32(queued),
		Stalled: int32(stalled),
		InUse:   int32(ps.InUse),
		Free:    int32(ps.Free),
		Detail:  detail,
	})
}

// Submit admits a generation request. The request is validated first — a
// *ValidationError (matching ErrInvalidRequest, and ErrEmptyPrompt /
// ErrBadToken where those apply) reports the offending field. Admission
// returns ErrBusy when MaxSessions sessions are in flight and
// ErrServerClosed after Close. The returned stream carries the generated
// events; ctx cancellation, deadline, or Stream.Cancel stops the session
// at its next scheduling quantum.
func (s *Server) Submit(ctx context.Context, req GenerateRequest) (*Stream, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	// Vocabulary-dependent checks at admission: the decoder panics on
	// out-of-range tokens, and a panic in a worker would take down every
	// session.
	if err := req.validateVocab(s.params.Cfg.VocabSize); err != nil {
		return nil, err
	}
	// Validate above already vetted the sampling config; MustNew cannot
	// fire.
	sampler := sample.MustNew(req.Sampling)
	maxTokens := req.MaxTokens
	if maxTokens == 0 {
		maxTokens = s.cfg.DefaultMaxNew
	}
	if ctx == nil {
		ctx = context.Background()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	if s.active >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d active", ErrBusy, s.cfg.MaxSessions)
	}
	s.active++
	if s.active > s.peak {
		s.peak = s.active
	}
	s.admitted++
	id := uint64(s.admitted) // 1-based admission sequence = trace session id
	// Register with the drain group while still holding the lock: a
	// concurrent Close observes either closed-before-us (we bailed above)
	// or a non-zero session count, never a window where the session is
	// admitted but invisible to sessWG.Wait.
	s.sessWG.Add(1)
	s.mu.Unlock()
	s.met.Admitted.Inc()

	// A session can emit at most MaxSeq - len(prompt) + 1 tokens before the
	// window fills (the +1 is the token sampled from the final prompt
	// logits), so cap the stream buffer there: huge MaxTokens values and
	// long prompts must not reserve buffer memory they can never use.
	buf := maxTokens
	if lim := s.params.Cfg.MaxSeq - len(req.Prompt) + 1; buf > lim {
		buf = lim
	}
	if buf < 0 {
		buf = 0
	}
	// The session's context is derived so Stream.Cancel can detach the
	// consumer without touching the caller's ctx; finish releases it.
	sctx, cancel := context.WithCancel(ctx)
	events := make(chan Event, buf)
	sess := &session{
		id:        id,
		rid:       hashRequestID(req.RequestID),
		ctx:       sctx,
		cancel:    cancel,
		req:       req,
		maxTokens: maxTokens,
		dec:       model.NewDecoderWith(s.params, nil, s.pool.Provider()),
		emit:      events,
		sampler:   sampler,
		submitted: time.Now(),
		penCtx:    append(make([]int, 0, len(req.Prompt)+buf), req.Prompt...),
	}
	sess.stream = &Stream{events: events, done: make(chan struct{}), cancel: cancel}
	s.trace(sess, obs.KindSubmit, 0, 0, 0, 0)
	if s.prefixes != nil {
		s.adoptPrefix(sess, true)
	}
	s.trace(sess, obs.KindQueued, 0, 0, 0, 0)
	s.sched.push(sess)
	return sess.stream, nil
}

// adoptPrefix seeds a fresh session decoder with the longest cached prompt
// prefix; prefill then resumes past the adopted rows, which is where the
// prefix-sharing TTFT and prefill-compute savings come from.
func (s *Server) adoptPrefix(sess *session, firstProbe bool) {
	rows := s.prefixes.adopt(sess.dec, sess.req.Prompt, firstProbe, !sess.hitCounted)
	if rows == 0 {
		return
	}
	sess.hitCounted = true
	if err := sess.dec.AdoptPrefix(rows); err != nil {
		// Unreachable for a fresh decoder; fall back to a full prefill and
		// return the adopted references.
		sess.dec.Reset()
		return
	}
	sess.promptPos = rows
	sess.adopted = rows
	sess.adoptedAll += rows
	s.met.PrefixRows.Add(int64(rows))
	s.trace(sess, obs.KindPrefixAdopt, 0, int32(rows), int32(rows), 0)
}

// Close stops admission, waits for in-flight sessions to drain, shuts the
// workers down, and releases the prefix index's cached blocks so the pool
// refcounts balance to zero. It is idempotent: concurrent and repeated
// calls all block until the first shutdown completes.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.sessWG.Wait()
		s.sched.close()
		s.wg.Wait()
		for _, ex := range s.execs {
			ex.Close()
		}
		if s.prefixes != nil {
			s.prefixes.evictAll()
		}
	})
}

// Report snapshots the fleet-wide statistics.
func (s *Server) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := Report{
		Admitted:        s.admitted,
		Finished:        make(map[FinishReason]int64, len(s.finished)),
		PromptTokens:    s.prompted,
		GenTokens:       s.genToks,
		PeakConcurrent:  s.peak,
		Preempted:       s.preempted,
		RecomputeTokens: s.recompute,
		Pool:            s.pool.Stats(),
		Exec:            s.execStats(),
	}
	if s.prefixes != nil {
		r.Prefix = s.prefixes.Stats()
	}
	for k, v := range s.finished {
		r.Finished[k] = v
	}
	r.Attn.Add(s.agg)
	return r
}

// worker runs dispatch quanta until the scheduler closes. The kernel and
// the head executor built here are this goroutine's alone; sessions borrow
// them for the duration of a quantum (per-session state — the KV caches and
// their quantized side-cars — travels with the session's decoder, so the
// hand-off is safe).
func (s *Server) worker(wid int) {
	defer s.wg.Done()
	var kernel model.Kernel
	if s.cfg.NewKernel != nil {
		kernel = s.cfg.NewKernel()
	}
	ex := s.execs[wid]
	for {
		sess, ok := s.sched.pop()
		if !ok {
			return
		}
		done := s.dispatch(sess, kernel, ex, wid)
		if sk, ok := kernel.(statKernel); ok {
			delta := sk.Stats()
			sk.ResetStats()
			s.mu.Lock()
			s.agg.Add(delta)
			s.mu.Unlock()
		}
		if !done {
			s.sched.push(sess)
		}
		s.sched.endRun()
	}
}

// dispatch advances one session by a single quantum: a prompt chunk while
// the prompt is unconsumed, then Quantum generation steps. It reports
// whether the session finished.
func (s *Server) dispatch(sess *session, kernel model.Kernel, ex exec.Executor, wid int) bool {
	if sess.parked {
		// Promoted off the stalled list: record the resume before anything
		// else can happen to the session (cancellation included), so every
		// park in the trace is matched.
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
		return true
	}
	sess.dec.Kernel = kernel
	sess.dec.Exec = ex

	if sess.promptPos < len(sess.req.Prompt) {
		return s.prefill(sess, wid)
	}
	// Count steps locally and publish once per quantum — the per-token
	// path must not take the global mutex.
	stepped, replayed := 0, 0
	defer func() {
		if stepped > 0 || replayed > 0 {
			s.mu.Lock()
			s.genToks += int64(stepped)
			s.recompute += int64(replayed)
			s.mu.Unlock()
		}
	}()
	for i := 0; i < s.cfg.Quantum; i++ {
		if err := sess.ctx.Err(); err != nil {
			s.finish(sess, Result{Reason: ReasonCanceled, Err: err})
			return true
		}
		if sess.replayPos < sess.replayEnd {
			// Preemption replay: re-consume an already-emitted token through
			// the generation kernel — the same compute path that produced
			// it, so the KV rows rebuild bit-identically — without emitting
			// anything. Replay shares the quantum budget: a deep session
			// catching up must not starve its peers.
			start := time.Now()
			if _, err := sess.dec.Step(sess.gen()[sess.replayPos]); err != nil {
				return s.storageErr(sess, err)
			}
			s.met.DecodeStep.Observe(time.Since(start).Seconds())
			sess.replayPos++
			sess.recomputed++
			replayed++
			s.met.Recomputed.AddSlot(wid, 1)
			s.trace(sess, obs.KindReplayStep, int32(sess.generated), 0, int32(sess.dec.Len()), 0)
			continue
		}
		start := time.Now()
		logits, err := sess.dec.Step(sess.next)
		if err != nil {
			return s.storageErr(sess, err)
		}
		s.met.DecodeStep.Observe(time.Since(start).Seconds())
		stepped++
		// Traced before advance: advance may finish the session, and finish
		// must stay its last trace event.
		s.trace(sess, obs.KindDecodeStep, int32(sess.generated+1), 1, int32(sess.dec.Len()), 0)
		if s.advance(sess, logits, wid) {
			return true
		}
	}
	return false
}

// prefill consumes one prompt chunk with exact attention; on the last chunk
// it publishes the prompt's full blocks to the prefix index and samples and
// emits the first generated token (unless the session is catching up after
// a preemption, in which case its first token was emitted long ago).
func (s *Server) prefill(sess *session, wid int) bool {
	if sess.promptPos == 0 && sess.adopted == 0 && s.prefixes != nil {
		// The admission-time probe missed, but the index may have filled in
		// the meantime (a same-prefix session published while this one sat
		// queued): re-probe at the last moment before prefill work begins.
		// Reset first — a failed block acquisition on an earlier attempt may
		// have left stray leases in the caches, and adoption needs them
		// empty.
		sess.dec.Reset()
		s.adoptPrefix(sess, false)
	}
	end := sess.promptPos + s.cfg.PromptChunk
	if end > len(sess.req.Prompt) {
		end = len(sess.req.Prompt)
	}
	start := time.Now()
	logits, err := sess.dec.Prompt(sess.req.Prompt[sess.promptPos:end])
	// The decoder may have consumed part of the chunk before failing;
	// account for what actually entered the KV cache.
	consumed := sess.dec.Len() - sess.promptPos
	sess.promptPos = sess.dec.Len()
	if consumed > 0 {
		s.met.PrefillChunk.Observe(time.Since(start).Seconds())
		s.met.PromptTokens.AddSlot(wid, int64(consumed))
		s.trace(sess, obs.KindPrefillChunk, int32(sess.generated), int32(consumed), int32(sess.promptPos), 0)
		s.mu.Lock()
		s.prompted += int64(consumed)
		s.mu.Unlock()
	}
	if err != nil {
		return s.storageErr(sess, err)
	}
	if sess.promptPos == len(sess.req.Prompt) {
		if s.prefixes != nil {
			s.prefixes.publish(sess.dec, sess.req.Prompt)
		}
		if sess.generated > 0 {
			// Preemption replay: move on to re-consuming emitted tokens.
			return false
		}
		return s.advance(sess, logits, wid)
	}
	return false
}

// storageErr handles a decoder error mid-session. Pool exhaustion walks a
// reclamation ladder — evict an idle cached prefix, preempt the least-
// progressed waiting session, preempt this session behind the pool's other
// holders — and finishes the session ReasonRejected only when every rung
// fails. Any other error finishes the session directly. It returns true
// when the worker must not requeue the session: it finished, or it was
// preempted onto the stalled list.
func (s *Server) storageErr(sess *session, err error) bool {
	if !errors.Is(err, ErrNoBlocks) {
		s.finishErr(sess, err)
		return true
	}
	// Cached-but-idle prefix blocks must never starve live sessions. This
	// rung is cache reclamation, not preemption, so it runs even when
	// MaxPreempts < 0 disables the preemption rungs below.
	if s.prefixes != nil && s.prefixes.evictOne() {
		s.met.LadderEvict.Inc()
		return false // retry on the reclaimed blocks
	}
	if s.cfg.MaxPreempts < 0 {
		s.met.LadderReject.Inc()
		s.finishErr(sess, err)
		return true
	}
	if v := s.sched.steal(sess.progress(), s.cfg.MaxPreempts); v != nil {
		// The victim stalls until the run queue drains; this session retries
		// on the victim's freed blocks at its next dispatch.
		s.met.LadderSteal.Inc()
		s.preempt(v)
		s.trace(v, obs.KindPreempt, int32(v.generated), 0, 0, obs.PreemptStolen)
		v.parked = true
		s.trace(v, obs.KindPark, int32(v.generated), 0, 0, obs.PreemptStolen)
		s.sched.stall(v)
		return false
	}
	if sess.preempts < s.cfg.MaxPreempts && s.othersActive() {
		s.met.LadderSelf.Inc()
		s.preempt(sess)
		s.trace(sess, obs.KindPreempt, int32(sess.generated), 0, 0, obs.PreemptSelf)
		sess.parked = true
		s.trace(sess, obs.KindPark, int32(sess.generated), 0, 0, obs.PreemptSelf)
		s.sched.stall(sess)
		return true
	}
	s.met.LadderReject.Inc()
	s.finishErr(sess, err)
	return true
}

// othersActive reports whether any other non-parked session is in flight —
// if everything else is finished or stalled (and stalled sessions hold no
// block references), preempting the current one cannot free anything it
// will not immediately need again, so exhaustion is a genuine capacity
// shortage.
func (s *Server) othersActive() bool {
	parked := s.sched.stalledLen()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active > 1+parked
}

// preempt releases a session's pool blocks and rewinds it for replay: the
// prompt re-prefills cheaply (via the prefix index when enabled — typically
// adopting the very blocks this session published during its first
// prefill, so only its non-shared state is truly recomputed) and the
// already-emitted tokens are re-consumed through the generation kernel
// without being re-emitted. Re-adoption is deliberately lazy (the
// prefill-time re-probe): a parked session must hold zero block
// references, shared ones included, so the eviction rung can reclaim idle
// index entries while it waits. The caller owns sess: either it is the
// session being dispatched, or it was just stolen from the run queue.
func (s *Server) preempt(sess *session) {
	// Every emitted token except the last was consumed by Step; the last
	// one is still pending in sess.next and is consumed on resume.
	sess.replayEnd = sess.generated - 1
	if sess.replayEnd < 0 {
		sess.replayEnd = 0
	}
	sess.replayPos = 0
	sess.promptPos = 0
	sess.adopted = 0
	sess.preempts++
	sess.dec.Reset()
	s.met.Preemptions.Inc()
	s.mu.Lock()
	s.preempted++
	s.mu.Unlock()
}

// advance runs the sampler chain on logits, emits the chosen token as an
// Event, and reports whether the session is finished (stop-sequence match
// or length budget spent).
func (s *Server) advance(sess *session, logits []float32, wid int) bool {
	tok := sess.sampler.Sample(logits, sess.penCtx)
	now := time.Now()
	if sess.generated == 0 {
		sess.firstTok = now
		s.met.TTFT.Observe(now.Sub(sess.submitted).Seconds())
	} else if !sess.lastTok.IsZero() {
		s.met.InterToken.Observe(now.Sub(sess.lastTok).Seconds())
	}
	sess.lastTok = now
	ev := Event{Token: tok, Index: sess.generated, Elapsed: now.Sub(sess.submitted)}
	if s.cfg.Detokenize != nil {
		ev.Text = s.cfg.Detokenize(tok)
	}
	sess.emit <- ev
	s.met.Generated.AddSlot(wid, 1)
	sess.next = tok
	sess.penCtx = append(sess.penCtx, tok)
	sess.generated++
	// Stop sequences win over the length budget when one token satisfies
	// both: the consumer learns why generation really ended.
	if idx, seq := matchStop(sess.req.Stop, sess.gen()); idx >= 0 {
		s.finish(sess, Result{Reason: ReasonStop, StopSeq: idx, StopTokens: seq})
		return true
	}
	if sess.generated >= sess.maxTokens {
		s.finish(sess, Result{Reason: ReasonLength})
		return true
	}
	return false
}

// finishErr maps decoder/pool errors to a terminal reason.
func (s *Server) finishErr(sess *session, err error) {
	reason := ReasonRejected
	if errors.Is(err, model.ErrContextFull) {
		reason = ReasonContextFull
		err = nil // expected terminal condition, not a failure
	}
	s.finish(sess, Result{Reason: reason, Err: err})
}

// finish releases the session's KV blocks back to the pool, records the
// outcome and its usage accounting, and wakes the stream's consumer.
func (s *Server) finish(sess *session, res Result) {
	res.Usage = Usage{
		PromptTokens:    sess.promptPos,
		GeneratedTokens: sess.generated,
		PrefixHitRows:   sess.adoptedAll,
		RecomputeTokens: sess.recomputed,
	}
	if res.Reason != ReasonStop {
		res.StopSeq = -1
	}
	res.Elapsed = time.Since(sess.submitted)
	if !sess.firstTok.IsZero() {
		res.TTFT = sess.firstTok.Sub(sess.submitted)
	}
	s.met.Finished[res.Reason].Inc()
	// Traced before the blocks are released, so the finish event samples the
	// occupancy the session was still holding.
	s.trace(sess, obs.KindFinish,
		int32(sess.generated), int32(sess.adoptedAll), int32(sess.promptPos),
		ReasonCode(res.Reason))
	sess.dec.Release()
	sess.cancel() // release the derived context
	close(sess.emit)
	sess.stream.res = res
	close(sess.stream.done)

	s.mu.Lock()
	s.active--
	s.finished[res.Reason]++
	s.mu.Unlock()
	s.sessWG.Done()
	// The released blocks may be exactly what a stalled session waits for.
	s.sched.kick()
}

// scheduler is the FIFO run queue workers pull dispatch quanta from. It is
// a ring buffer: popped slots are nil'd immediately, so a finished
// session's decoder and KV side-cars become collectable the moment it
// leaves the queue instead of lingering in a sliced-off backing array
// under sustained load.
//
// Preempted sessions park on the stalled list instead of the run queue:
// they hold no exclusive pool blocks, and re-admitting them immediately
// would just re-create the exhaustion that preempted them. A stalled
// session is promoted only when the run queue empties AND the pool can
// plausibly serve it again (the resume gate: capacity freed up) — or, as
// the liveness fallback, when no session is mid-dispatch either, so the
// engine can never deadlock with everyone parked: the promoted session
// either proceeds or walks the reclamation ladder to its rejection.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []*session
	head    int
	count   int
	running int // sessions currently inside a dispatch quantum
	stalled []*session
	// resumeGate reports whether a stalled session is worth waking (pool
	// capacity available); nil means always.
	resumeGate func() bool
	closed     bool
}

func (sc *scheduler) pushLocked(sess *session) {
	if sc.count == len(sc.buf) {
		n := len(sc.buf) * 2
		if n < 8 {
			n = 8
		}
		fresh := make([]*session, n)
		for i := 0; i < sc.count; i++ {
			fresh[i] = sc.buf[(sc.head+i)%len(sc.buf)]
		}
		sc.buf = fresh
		sc.head = 0
	}
	sc.buf[(sc.head+sc.count)%len(sc.buf)] = sess
	sc.count++
}

func (sc *scheduler) push(sess *session) {
	sc.mu.Lock()
	sc.pushLocked(sess)
	sc.mu.Unlock()
	sc.cond.Signal()
}

// stall parks a preempted session until the run queue drains.
func (sc *scheduler) stall(sess *session) {
	sc.mu.Lock()
	sc.stalled = append(sc.stalled, sess)
	sc.mu.Unlock()
	sc.cond.Signal() // a worker may be waiting on an empty run queue
}

// promoteStalledLocked moves one parked session back to the run queue when
// warranted: a canceled session unconditionally (its result must not wait
// for pool capacity), else the oldest one — whenever the pool freed up, or
// nothing else could possibly free it, or we are draining for close.
// Promotion is independent of queue depth: under sustained load the run
// queue never empties, and parked sessions must not starve behind it.
func (sc *scheduler) promoteStalledLocked() {
	if len(sc.stalled) == 0 {
		return
	}
	idx := -1
	for i, v := range sc.stalled {
		if v.ctx != nil && v.ctx.Err() != nil {
			idx = i
			break
		}
	}
	if idx < 0 && (sc.closed || (sc.running == 0 && sc.count == 0) ||
		sc.resumeGate == nil || sc.resumeGate()) {
		idx = 0
	}
	if idx >= 0 {
		sc.pushLocked(sc.stalled[idx])
		copy(sc.stalled[idx:], sc.stalled[idx+1:])
		sc.stalled[len(sc.stalled)-1] = nil
		sc.stalled = sc.stalled[:len(sc.stalled)-1]
	}
}

// popLocked removes the queue's front session and opens its dispatch
// quantum. Callers hold the lock and have checked count > 0.
func (sc *scheduler) popLocked() *session {
	sess := sc.buf[sc.head]
	sc.buf[sc.head] = nil // release the slot: popped sessions must be collectable
	sc.head = (sc.head + 1) % len(sc.buf)
	sc.count--
	sc.running++
	return sess
}

// pop blocks for the next runnable session; ok is false once the scheduler
// is closed and drained (stalled sessions included). Each successful pop
// opens a dispatch quantum the worker must close with endRun.
func (sc *scheduler) pop() (*session, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for {
		sc.promoteStalledLocked()
		if sc.count > 0 {
			break
		}
		if sc.closed && len(sc.stalled) == 0 {
			return nil, false
		}
		sc.cond.Wait()
	}
	return sc.popLocked(), true
}

// popBatch blocks for at least one runnable session, then drains the run
// queue in FIFO order into dst until the iteration's token budget is spent:
// a decode or replay session costs one row, a pending prompt costs its next
// prefill chunk (at most chunk rows). The first session is admitted
// regardless of cost so an oversized prompt chunk still makes progress. It
// returns nil once the scheduler is closed and drained; otherwise each
// returned session has an open dispatch quantum the caller must close via
// endRunN(len(batch)).
func (sc *scheduler) popBatch(dst []*session, budget, chunk int) []*session {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for {
		sc.promoteStalledLocked()
		if sc.count > 0 {
			break
		}
		if sc.closed && len(sc.stalled) == 0 {
			return nil
		}
		sc.cond.Wait()
	}
	spent := 0
	for sc.count > 0 {
		sess := sc.buf[sc.head]
		cost := 1
		if rem := len(sess.req.Prompt) - sess.promptPos; rem > 0 {
			cost = rem
			if cost > chunk {
				cost = chunk
			}
		}
		if len(dst) > 0 && spent+cost > budget {
			break
		}
		dst = append(dst, sc.popLocked())
		spent += cost
	}
	return dst
}

// endRun closes the dispatch quantum opened by pop. When the last running
// quantum ends, waiting workers re-check the stalled list: with nothing
// running, a parked session is the only way forward.
func (sc *scheduler) endRun() { sc.endRunN(1) }

// endRunN closes n dispatch quanta at once — the whole iteration of the
// batching scheduler.
func (sc *scheduler) endRunN(n int) {
	sc.mu.Lock()
	sc.running -= n
	wake := sc.running == 0 && len(sc.stalled) > 0
	sc.mu.Unlock()
	if wake {
		sc.cond.Broadcast()
	}
}

// kick re-evaluates the stalled list after pool capacity was freed outside
// the scheduler's view (a session finished and released its blocks).
func (sc *scheduler) kick() {
	sc.cond.Broadcast()
}

// stalledLen returns how many sessions are parked.
func (sc *scheduler) stalledLen() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.stalled)
}

// depths snapshots the scheduler's run-queue depth, parked-session count,
// and in-flight dispatch count in one lock acquisition.
func (sc *scheduler) depths() (queued, stalled, running int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.count, len(sc.stalled), sc.running
}

// steal removes and returns the least-progressed waiting session whose
// progress does not exceed maxProgress and whose preemption budget is not
// spent; nil when no such victim is queued. Equal progress still yields a
// victim — identical prompts advance in lockstep, and the dispatching
// session keeping its blocks while the victim restarts cheaply through the
// prefix index beats both of them thrashing. Queued sessions are not
// executing, so the caller owns the returned session until it parks it.
func (sc *scheduler) steal(maxProgress, maxPreempts int) *session {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	bestIdx := -1
	var best *session
	for i := 0; i < sc.count; i++ {
		v := sc.buf[(sc.head+i)%len(sc.buf)]
		if v.preempts >= maxPreempts {
			continue
		}
		if v.parked {
			// Promoted off the stalled list but not yet dispatched: its
			// blocks are already released, so preempting it again frees
			// nothing and would emit a second park with no resume between.
			continue
		}
		p := v.progress()
		if p <= v.adopted {
			// Nothing computed beyond (at most) adopted shared rows: the
			// victim holds no private blocks, so preempting it frees
			// nothing and only burns its budget toward a spurious reject.
			continue
		}
		if p <= maxProgress && (best == nil || p < best.progress()) {
			best, bestIdx = v, i
		}
	}
	if best == nil {
		return nil
	}
	// Close the gap by shifting the queue's front over the stolen slot.
	for i := bestIdx; i > 0; i-- {
		sc.buf[(sc.head+i)%len(sc.buf)] = sc.buf[(sc.head+i-1)%len(sc.buf)]
	}
	sc.buf[sc.head] = nil
	sc.head = (sc.head + 1) % len(sc.buf)
	sc.count--
	return best
}

func (sc *scheduler) close() {
	sc.mu.Lock()
	sc.closed = true
	sc.mu.Unlock()
	sc.cond.Broadcast()
}
