package main

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// recorded is an SSE body captured from httpapi.Handler: five greedy tokens,
// the final chunk with finish_reason and usage, then [DONE].
func recorded(t *testing.T) []byte {
	t.Helper()
	body, err := os.ReadFile("testdata/stream.sse")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// flushEach marks a flush at the headers and after every event, the way the
// handler writes the stream; event k's flush happens at t0 + k ms.
func flushEach(body []byte, t0 time.Time) []flushMark {
	marks := []flushMark{{t0, 0}}
	for off, k := 0, 1; ; k++ {
		n := bytes.Index(body[off:], []byte("\n\n"))
		if n < 0 {
			return marks
		}
		off += n + 2
		marks = append(marks, flushMark{t0.Add(time.Duration(k) * time.Millisecond), off})
	}
}

func TestParseSSERecordedStream(t *testing.T) {
	body := recorded(t)
	t0 := time.Unix(1, 0)
	s, err := parseSSE(body, flushEach(body, t0))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 5, 4, 2, 1}; !slices.Equal(s.tokens, want) {
		t.Errorf("tokens %v, want %v", s.tokens, want)
	}
	if s.finish != "length" || s.usage != 5 || s.errMsg != "" || !s.done {
		t.Errorf("final chunk: finish %q usage %d error %q done %v", s.finish, s.usage, s.errMsg, s.done)
	}
	for i, at := range s.tokenAt {
		if want := t0.Add(time.Duration(i+1) * time.Millisecond); !at.Equal(want) {
			t.Errorf("token %d flushed at %v, want %v", i, at.Sub(t0), want.Sub(t0))
		}
	}
}

// A flush that covers several chunks delivers their tokens together: the
// bursty stream the engine produces when the handler goroutine waits for a
// processor.
func TestParseSSEBurstSharesFlushTime(t *testing.T) {
	body := recorded(t)
	t0 := time.Unix(1, 0)
	all := flushEach(body, t0)
	// Drop the flushes after tokens 0 and 1: tokens 0..2 share token 2's.
	marks := append([]flushMark{all[0]}, all[3:]...)
	s, err := parseSSE(body, marks)
	if err != nil {
		t.Fatal(err)
	}
	burst := t0.Add(3 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if !s.tokenAt[i].Equal(burst) {
			t.Errorf("token %d flushed at %v, want the burst at 3ms", i, s.tokenAt[i].Sub(t0))
		}
	}
	if d, _ := tpot(s.tokenAt[0], s.tokenAt[4], len(s.tokens)); d != 500*time.Microsecond {
		t.Errorf("TPOT over the burst = %v, want 0.5ms", d)
	}
}

func TestParseSSEMalformed(t *testing.T) {
	body := recorded(t)
	marks := flushEach(body, time.Unix(1, 0))

	cut := bytes.Index(body, []byte("data: [DONE]"))
	s, err := parseSSE(body[:cut], marks)
	if err != nil || s.done {
		t.Errorf("stream without [DONE]: err %v, done %v", err, s.done)
	}
	if _, err := parseSSE(body, marks[:2]); err == nil {
		t.Error("accepted chunks that were never flushed")
	}
	if _, err := parseSSE(body[:len(body)-1], marks); err == nil {
		t.Error("accepted an unterminated event")
	}
	failed := []byte(strings.Replace(string(body), `"finish_reason":"length"}]`,
		`"finish_reason":"rejected"}],"error":"serve: pool exhausted"`, 1))
	s, err = parseSSE(failed, flushEach(failed, time.Unix(1, 0)))
	if err != nil || s.errMsg != "serve: pool exhausted" || s.finish != "rejected" {
		t.Errorf("error chunk: err %v, finish %q, error %q", err, s.finish, s.errMsg)
	}
}
