package serve

import (
	"bytes"
	"context"
	"testing"

	"tokenpicker/internal/model"
	"tokenpicker/internal/obs"
	"tokenpicker/internal/train"
)

// TestSpeculativeServingBitExact gates the full serving matrix — every
// serving kernel, both dispatch modes (the per-session worker pool and the
// iteration-level batch scheduler), executor widths 1 and 8, paged KV pool
// with prefix sharing on — against the single-tenant serial reference, bit
// for bit. The name is kept from when this matrix also gated a speculative
// decode path (since deleted); the surviving assertions are the ones that
// path had to preserve: exact tokens, exact usage and counter accounting,
// and a lifecycle trace that validates with one finish per session.
func TestSpeculativeServingBitExact(t *testing.T) {
	r := train.TestModel()
	const (
		sessions = 6
		maxNew   = 24
	)
	prompts := testPrompts(r, sessions)
	modes := []struct {
		name  string
		batch int // Config.MaxBatchTokens (0 = worker mode)
	}{
		{"worker", 0},
		{"batch", 32},
	}

	for _, kc := range batchTestKernels {
		for _, mode := range modes {
			for _, width := range []int{1, 8} {
				t.Run(kc.name+"/"+mode.name+"/width="+string(rune('0'+width)), func(t *testing.T) {
					tracer := obs.NewTracer(1 << 15)
					var traceBuf bytes.Buffer
					sink := obs.NewJSONLWriter(&traceBuf)
					tracer.SetSink(sink)
					srv := NewServer(r.Params, Config{
						Workers:        2,
						BlockRows:      16,
						PromptChunk:    8,
						MaxBatchTokens: mode.batch,
						SharePrefix:    true,
						HeadParallel:   width,
						Tracer:         tracer,
						NewKernel:      kc.mk,
					})
					streams := make([]*Stream, sessions)
					for i, p := range prompts {
						st, err := srv.Submit(context.Background(), GenerateRequest{Prompt: p, MaxTokens: maxNew})
						if err != nil {
							t.Fatalf("submit %d: %v", i, err)
						}
						streams[i] = st
					}
					got := make([][]int, sessions)
					res := make([]Result, sessions)
					for i, st := range streams {
						for ev := range st.Events() {
							got[i] = append(got[i], ev.Token)
						}
						res[i] = st.Result()
					}
					srv.Close()
					met := srv.Metrics()

					var generated int64
					for i, p := range prompts {
						if res[i].Reason != ReasonLength || res[i].Err != nil {
							t.Fatalf("session %d finished %q err=%v", i, res[i].Reason, res[i].Err)
						}
						if res[i].Usage.GeneratedTokens != len(got[i]) {
							t.Fatalf("session %d usage generated %d, streamed %d", i, res[i].Usage.GeneratedTokens, len(got[i]))
						}
						generated += int64(len(got[i]))
						var k model.Kernel
						if kc.mk != nil {
							k = kc.mk()
						}
						want := decodeSerial(t, r.Params, k, p, maxNew)
						if len(got[i]) != len(want) {
							t.Fatalf("session %d emitted %d tokens, want %d", i, len(got[i]), len(want))
						}
						for j := range want {
							if got[i][j] != want[j] {
								t.Fatalf("session %d token %d: served %d != serial %d", i, j, got[i][j], want[j])
							}
						}
					}
					if g := met.Generated.Value(); g != generated {
						t.Fatalf("generated counter %d, streamed total %d", g, generated)
					}

					if err := sink.Flush(); err != nil {
						t.Fatalf("trace sink: %v", err)
					}
					events, err := obs.ParseTrace(&traceBuf)
					if err != nil {
						t.Fatalf("parse trace: %v", err)
					}
					if err := obs.ValidateTimeline(events, false); err != nil {
						t.Fatalf("trace inconsistent: %v", err)
					}
					var finishes int
					for _, ev := range events {
						if ev.Kind == obs.KindFinish {
							finishes++
						}
					}
					if finishes != sessions {
						t.Fatalf("trace recorded %d finish events, want %d", finishes, sessions)
					}
				})
			}
		}
	}
}
