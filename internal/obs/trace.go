package obs

import (
	"fmt"
	"sync"
	"time"
)

// Kind discriminates lifecycle span events. The sequence of one session is
// submit → queued → admitted → (prefix_adopt | prefill_chunk)* →
// (decode_step | replay_step | preempt park resume …)* → finish.
type Kind uint8

const (
	KindInvalid Kind = iota
	// KindSubmit: the request passed validation and was admitted.
	KindSubmit
	// KindQueued: the session entered the run queue for the first time.
	KindQueued
	// KindAdmitted: a worker began the session's first dispatch quantum.
	KindAdmitted
	// KindPrefillChunk: one prompt chunk was prefilled (Tokens = chunk size
	// actually consumed, Rows = context rows after the chunk).
	KindPrefillChunk
	// KindDecodeStep: one generation step that emitted a token (Tokens = 1,
	// Step = tokens emitted so far, Rows = context rows attended).
	KindDecodeStep
	// KindReplayStep: one preemption-replay step — an already-emitted token
	// re-consumed to rebuild KV state; nothing was emitted.
	KindReplayStep
	// KindPrefixAdopt: the session adopted cached prefix KV (Tokens = rows
	// adopted instead of prefilled).
	KindPrefixAdopt
	// KindPreempt: the session's pool blocks were released for reclamation
	// (Detail: PreemptSelf or PreemptStolen).
	KindPreempt
	// KindPark: the preempted session moved to the stalled list.
	KindPark
	// KindResume: a parked session was promoted back into dispatch.
	KindResume
	// KindFinish: terminal event (Detail = finish-reason code, Step = tokens
	// emitted, Tokens = cumulative prefix rows adopted, Rows = prompt tokens
	// consumed).
	KindFinish
)

// Preempt Detail codes.
const (
	// PreemptSelf: the dispatching session parked itself behind the pool's
	// other holders.
	PreemptSelf = 1
	// PreemptStolen: the session was stolen from the run queue as the
	// least-progressed victim.
	PreemptStolen = 2
)

var kindNames = [...]string{
	KindInvalid:      "invalid",
	KindSubmit:       "submit",
	KindQueued:       "queued",
	KindAdmitted:     "admitted",
	KindPrefillChunk: "prefill_chunk",
	KindDecodeStep:   "decode_step",
	KindReplayStep:   "replay_step",
	KindPrefixAdopt:  "prefix_adopt",
	KindPreempt:      "preempt",
	KindPark:         "park",
	KindResume:       "resume",
	KindFinish:       "finish",
}

// String returns the wire name of the kind.
//
//topick:noalloc
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// KindFromString inverts String; KindInvalid for unknown names.
func KindFromString(s string) Kind {
	for k, name := range kindNames {
		if name == s && Kind(k) != KindInvalid {
			return Kind(k)
		}
	}
	return KindInvalid
}

// Event is one span event of a session lifecycle. It is a fixed-size value
// (no pointers), so recording one into the tracer's ring performs no
// allocation. Besides the kind-specific payload fields (Step, Tokens, Rows,
// Detail — see the Kind constants), every event samples the engine state at
// emission time: sessions mid-dispatch (the batch shape), run-queue depth,
// parked sessions, and KV pool occupancy.
type Event struct {
	Session uint64 // engine-assigned session id, 1-based
	ReqID   uint64 // caller-supplied request id hash (0 = none); correlates a request across replicas
	Kind    Kind
	T       int64 // nanoseconds since the tracer epoch (monotonic clock)
	Step    int32 // tokens emitted so far
	Tokens  int32 // kind-specific payload (chunk size, adopted rows, ...)
	Rows    int32 // session context rows (KV length) at the event
	Batch   int32 // sessions mid-dispatch: workers' quanta, or the iteration's batch size
	Queue   int32 // run-queue depth
	Stalled int32 // parked (preempted) sessions
	InUse   int32 // KV pool blocks referenced
	Free    int32 // KV pool blocks on the free list
	Detail  int32 // kind-specific code (finish reason, preempt rung)
}

// Sink receives every recorded event, called synchronously under the
// tracer's lock — implementations must not call back into the tracer and
// should be allocation-free on the steady path (see JSONLWriter).
type Sink interface {
	Record(Event)
}

// Tracer collects lifecycle events into a fixed-capacity ring buffer,
// overwriting the oldest once full, and tees every event to an optional
// sink. Record is allocation-free; Tail and Snapshot are read paths.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	ring  []Event
	next  int
	total uint64
	sink  Sink
}

// NewTracer builds a tracer with the given ring capacity (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{epoch: time.Now(), ring: make([]Event, capacity)}
}

// SetSink installs the tee sink (nil to remove). Install before traffic:
// the sink swap is locked, but a mid-stream swap tears the event sequence.
func (t *Tracer) SetSink(s Sink) {
	t.mu.Lock()
	t.sink = s
	t.mu.Unlock()
}

// Epoch returns the wall-clock instant T is measured from.
func (t *Tracer) Epoch() time.Time { return t.epoch }

// Record stamps ev.T from the tracer's monotonic epoch and stores the event.
// Stamping happens under the lock, so ring order and per-session order are
// both monotonic by construction.
//
//topick:noalloc
func (t *Tracer) Record(ev Event) {
	t.mu.Lock()
	ev.T = int64(time.Since(t.epoch))
	t.ring[t.next] = ev
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	t.total++
	if t.sink != nil {
		t.sink.Record(ev)
	}
	t.mu.Unlock()
}

// Total returns how many events were ever recorded (including overwritten
// ones).
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Tail returns the most recent n events in record order (oldest first). It
// allocates; n is clamped to what the ring still holds.
func (t *Tracer) Tail(n int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	held := int(t.total)
	if held > len(t.ring) {
		held = len(t.ring)
	}
	if n > held {
		n = held
	}
	if n <= 0 {
		return nil
	}
	out := make([]Event, n)
	start := t.next - n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < n; i++ {
		out[i] = t.ring[(start+i)%len(t.ring)]
	}
	return out
}

// sessionCheck accumulates per-session validation state.
type sessionCheck struct {
	lastT     int64
	first     Kind
	finished  bool
	preempts  int
	resumes   int
	parks     int
	adoptRows int64
	finish    Event
}

// ValidateTimeline checks that a trace is a consistent serving history:
// timestamps are globally and per-session monotonic, every session opens
// with submit and closes with exactly one finish, every preempt is matched
// by a resume, and the prefix rows on the finish event equal the sum of its
// prefix_adopt events. Sessions with no finish event (trace truncated by
// the ring) are tolerated only when allowPartial is set.
func ValidateTimeline(events []Event, allowPartial bool) error {
	var lastT int64
	sessions := make(map[uint64]*sessionCheck)
	for i, ev := range events {
		if ev.Kind == KindInvalid || int(ev.Kind) >= len(kindNames) {
			return fmt.Errorf("obs: event %d: invalid kind %d", i, ev.Kind)
		}
		if ev.T < lastT {
			return fmt.Errorf("obs: event %d: global timestamp regressed (%d < %d)", i, ev.T, lastT)
		}
		lastT = ev.T
		if ev.Session == 0 {
			return fmt.Errorf("obs: event %d: zero session id", i)
		}
		sc, ok := sessions[ev.Session]
		if !ok {
			sc = &sessionCheck{first: ev.Kind}
			sessions[ev.Session] = sc
		}
		if ev.T < sc.lastT {
			return fmt.Errorf("obs: session %d: timestamp regressed at event %d", ev.Session, i)
		}
		sc.lastT = ev.T
		if sc.finished {
			return fmt.Errorf("obs: session %d: %s after finish", ev.Session, ev.Kind)
		}
		switch ev.Kind {
		case KindPreempt:
			sc.preempts++
		case KindPark:
			sc.parks++
		case KindResume:
			sc.resumes++
		case KindPrefixAdopt:
			sc.adoptRows += int64(ev.Tokens)
		case KindFinish:
			sc.finished = true
			sc.finish = ev
		}
	}
	for sid, sc := range sessions {
		if sc.first != KindSubmit && !allowPartial {
			return fmt.Errorf("obs: session %d: opens with %s, want submit", sid, sc.first)
		}
		if !sc.finished {
			if allowPartial {
				continue
			}
			return fmt.Errorf("obs: session %d: no finish event", sid)
		}
		if sc.preempts != sc.resumes {
			return fmt.Errorf("obs: session %d: %d preempts vs %d resumes", sid, sc.preempts, sc.resumes)
		}
		if sc.preempts != sc.parks {
			return fmt.Errorf("obs: session %d: %d preempts vs %d parks", sid, sc.preempts, sc.parks)
		}
		if sc.first == KindSubmit && sc.adoptRows != int64(sc.finish.Tokens) {
			return fmt.Errorf("obs: session %d: adopted %d prefix rows but finish records %d",
				sid, sc.adoptRows, sc.finish.Tokens)
		}
	}
	return nil
}
