package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// flushMark is one http.Flusher call: when it happened and how many body
// bytes had been written by then.
type flushMark struct {
	at  time.Time
	end int
}

// streamWriter is the in-process ResponseWriter the load generator hands to
// Handler.ServeHTTP: it buffers the body and timestamps every flush, which
// is when a network server would put an SSE chunk on the wire.
type streamWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
	marks  []flushMark
}

func newStreamWriter(chunks int) *streamWriter {
	return &streamWriter{hdr: make(http.Header), marks: make([]flushMark, 0, chunks+4)}
}

func (w *streamWriter) Header() http.Header { return w.hdr }

func (w *streamWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *streamWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(p)
}

func (w *streamWriter) Flush() { w.marks = append(w.marks, flushMark{time.Now(), w.buf.Len()}) }

// sseStream is a parsed completion stream.
type sseStream struct {
	tokens  []int
	tokenAt []time.Time // flush time of each token's chunk
	finish  string      // finish_reason of the final chunk
	usage   int         // usage.completion_tokens of the final chunk
	errMsg  string      // error of the final chunk
	done    bool        // saw the [DONE] terminator
}

// sseChunk is the part of a streamed completion chunk the client reads.
type sseChunk struct {
	Choices []struct {
		Tokens       []int  `json:"tokens"`
		FinishReason string `json:"finish_reason"`
	} `json:"choices"`
	Usage *struct {
		CompletionTokens int `json:"completion_tokens"`
	} `json:"usage"`
	Error string `json:"error"`
}

// parseSSE splits an SSE body into its "data:" events and stamps each token
// with the first flush that covered its chunk.
func parseSSE(body []byte, marks []flushMark) (sseStream, error) {
	var s sseStream
	off, mark := 0, 0
	for off < len(body) {
		n := bytes.Index(body[off:], []byte("\n\n"))
		if n < 0 {
			return s, fmt.Errorf("unterminated SSE event at byte %d", off)
		}
		event := body[off : off+n]
		off += n + 2
		data, ok := bytes.CutPrefix(event, []byte("data: "))
		if !ok {
			return s, fmt.Errorf("SSE event without data field: %q", event)
		}
		if s.done {
			return s, fmt.Errorf("SSE event after [DONE]")
		}
		if string(data) == "[DONE]" {
			s.done = true
			continue
		}
		var c sseChunk
		if err := json.Unmarshal(data, &c); err != nil {
			return s, fmt.Errorf("SSE chunk: %w", err)
		}
		if len(c.Choices) != 1 {
			return s, fmt.Errorf("SSE chunk with %d choices", len(c.Choices))
		}
		for mark < len(marks) && marks[mark].end < off {
			mark++
		}
		if mark == len(marks) {
			return s, fmt.Errorf("SSE chunk ending at byte %d was never flushed", off)
		}
		for _, tok := range c.Choices[0].Tokens {
			s.tokens = append(s.tokens, tok)
			s.tokenAt = append(s.tokenAt, marks[mark].at)
		}
		if fr := c.Choices[0].FinishReason; fr != "" {
			s.finish = fr
			s.errMsg = c.Error
			if c.Usage != nil {
				s.usage = c.Usage.CompletionTokens
			}
		}
	}
	return s, nil
}

// result is the client's view of one request.
type result struct {
	status int
	err    string // transport, parse, or engine error; "" when none
	finish string
	want   int // max_tokens asked for
	tokens int // tokens received
	usage  int // usage.completion_tokens
	due    time.Time
	first  time.Time // first token flush
	last   time.Time // last token flush
	sent   time.Time // ServeHTTP called
	done   time.Time // ServeHTTP returned
	toks   []int     // received tokens, kept for verified requests only
	// flushes holds every token's flush time, in traced runs only.
	flushes []time.Time
	// mismatch marks a verified request whose tokens differ from the
	// reference decode.
	mismatch bool
}

// ok reports whether the request completed cleanly with the tokens asked
// for and, where verified, the reference decode's tokens.
func (r *result) ok() bool {
	return r.status == http.StatusOK && r.err == "" && r.finish == "length" &&
		r.tokens == r.want && r.usage == r.tokens && !r.mismatch
}

// ttft and tpotMs are the request's latencies in milliseconds.
func (r *result) ttft() float64 { return ms(r.first.Sub(r.due)) }

func (r *result) tpotMs() (float64, bool) {
	d, ok := tpot(r.first, r.last, r.tokens)
	return ms(d), ok
}

// client drives one handler in-process.
type client struct {
	h     http.Handler
	keep  map[int]bool // request indices whose tokens are kept
	spans bool         // keep every token's flush time
}

// do sends one request through ServeHTTP on the calling goroutine, as
// net/http would, and parses the stream once the handler returns.
func (c *client) do(ctx context.Context, req *request, due time.Time, keep bool) result {
	res := result{due: due, want: req.maxTokens}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/completions", bytes.NewReader(req.body))
	if err != nil {
		res.err = err.Error()
		return res
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Request-ID", req.id)
	w := newStreamWriter(req.maxTokens)
	res.sent = time.Now()
	c.h.ServeHTTP(w, hr)
	res.done = time.Now()
	res.status = w.status
	if res.status != http.StatusOK {
		res.err = fmt.Sprintf("HTTP %d: %s", w.status, bytes.TrimSpace(w.buf.Bytes()))
		return res
	}
	s, err := parseSSE(w.buf.Bytes(), w.marks)
	switch {
	case err != nil:
		res.err = err.Error()
	case !s.done:
		res.err = "stream ended without [DONE]"
	case s.errMsg != "":
		res.err = s.errMsg
	}
	res.finish, res.usage, res.tokens = s.finish, s.usage, len(s.tokens)
	if res.tokens > 0 {
		res.first, res.last = s.tokenAt[0], s.tokenAt[res.tokens-1]
	}
	if keep {
		res.toks = s.tokens
	}
	if c.spans {
		res.flushes = s.tokenAt
	}
	return res
}

// phase is the outcome of sending one request set.
type phase struct {
	results    []result
	lags       []float64 // window: ms the generator sent each request late
	start, end time.Time
}

// sent, succeeded and failed count the phase's requests.
func (p *phase) counts() (sent, ok, failed int) {
	for i := range p.results {
		if p.results[i].ok() {
			ok++
		}
	}
	return len(p.results), ok, len(p.results) - ok
}

// busy is the time during which at least one of the phase's requests was
// due and not yet answered. An open loop below capacity is busy for a share
// of its span that grows with each request's latency, so throughput per busy
// second moves with the engine's speed where throughput per wall second only
// echoes the offered rate.
func (p *phase) busy() time.Duration {
	spans := make([][2]time.Time, len(p.results))
	for i := range p.results {
		spans[i] = [2]time.Time{p.results[i].due, p.results[i].done}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0].Before(spans[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, s := range spans {
		switch {
		case i == 0:
			cur = s
		case s[0].After(cur[1]):
			total += cur[1].Sub(cur[0])
			cur = s
		case s[1].After(cur[1]):
			cur[1] = s[1]
		}
	}
	if len(spans) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}

// runOpen sends reqs on their due schedule from one generator goroutine,
// each request on its own goroutine. Latencies count from the due time, so
// a generator that falls behind is charged to the system, and its lag is
// recorded.
func (c *client) runOpen(ctx context.Context, reqs []request) phase {
	p := phase{results: make([]result, len(reqs)), lags: make([]float64, len(reqs))}
	var wg sync.WaitGroup
	p.start = time.Now()
	for i := range reqs {
		due := p.start.Add(reqs[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p.lags[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			p.results[i] = c.do(ctx, &reqs[i], due, c.keep[i])
		}(i, due)
	}
	wg.Wait()
	p.end = time.Now()
	return p
}

// runClosed sends reqs from clients goroutines, each sending its next
// request as soon as its previous one completes.
func (c *client) runClosed(ctx context.Context, reqs []request, clients int) phase {
	p := phase{results: make([]result, len(reqs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	p.start = time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				p.results[i] = c.do(ctx, &reqs[i], time.Now(), c.keep[i])
			}
		}()
	}
	wg.Wait()
	p.end = time.Now()
	return p
}
