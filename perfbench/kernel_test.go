package main

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"tokenpicker/internal/model"
	"tokenpicker/internal/serve"
	"tokenpicker/internal/train"
)

// serveAttn serves a fixed request set on a fresh engine and returns its
// attention report.
func serveAttn(t *testing.T, newKernel func() model.Kernel) serve.Report {
	t.Helper()
	res := train.TestModel()
	srv := serve.NewServer(res.Params, serve.Config{SharePrefix: true, NewKernel: newKernel})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		st, err := srv.Submit(context.Background(), serve.GenerateRequest{
			Prompt:    res.Held[i*40 : i*40+24+8*i],
			MaxTokens: 24,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range st.Events() {
			}
		}()
	}
	wg.Wait()
	srv.Close()
	return srv.Report()
}

func TestTimedKernelLeavesAttnReportIdentical(t *testing.T) {
	plain := serveAttn(t, func() model.Kernel { return newKernel() })
	clock := &kernelClock{}
	timedRep := serveAttn(t, timed(newKernel, clock))
	if plain.Attn.Tokens == 0 {
		t.Fatal("undecorated run reported no attention traffic")
	}
	if !reflect.DeepEqual(plain.Attn, timedRep.Attn) {
		t.Errorf("decorated Report.Attn %+v differs from undecorated %+v", timedRep.Attn, plain.Attn)
	}
	if clock.calls.Load() == 0 || clock.busyNs.Load() <= 0 {
		t.Errorf("clock saw %d calls, %dns", clock.calls.Load(), clock.busyNs.Load())
	}
	// Every context row the decorator saw is one the kernel accounted.
	if got := clock.rows.Load(); got != timedRep.Attn.Tokens {
		t.Errorf("decorator counted %d rows, kernel %d tokens", got, timedRep.Attn.Tokens)
	}
}
