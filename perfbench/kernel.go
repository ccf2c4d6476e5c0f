package main

import (
	"sync/atomic"
	"time"

	"tokenpicker/internal/attention"
	"tokenpicker/internal/model"
)

// statKernel is an attention kernel that accounts its K/V traffic. The
// engine aggregates Report.Attn only from kernels with these methods, so a
// decorator must forward them.
type statKernel interface {
	model.Kernel
	Stats() attention.Stats
	ResetStats()
}

// kernelClock accumulates what every timedKernel built by one factory saw:
// AttendLayer calls, context rows attended (summed over heads), and wall
// time inside the wrapped kernel. Workers share one clock, so the counters
// are atomic.
type kernelClock struct {
	calls  atomic.Int64
	rows   atomic.Int64
	busyNs atomic.Int64
}

// timedKernel times every AttendLayer call of the kernel it wraps and
// forwards Stats/ResetStats unchanged.
type timedKernel struct {
	k     statKernel
	clock *kernelClock
}

// timed wraps a kernel factory so every kernel it builds reports to clock.
func timed(newKernel func() statKernel, clock *kernelClock) func() model.Kernel {
	return func() model.Kernel { return &timedKernel{k: newKernel(), clock: clock} }
}

func (t *timedKernel) AttendLayer(b model.AttendBatch) {
	start := time.Now()
	t.k.AttendLayer(b)
	t.clock.busyNs.Add(int64(time.Since(start)))
	t.clock.calls.Add(1)
	t.clock.rows.Add(int64(batchRows(b)))
}

func (t *timedKernel) Stats() attention.Stats { return t.k.Stats() }
func (t *timedKernel) ResetStats()            { t.k.ResetStats() }

// batchRows counts the context rows one AttendLayer call attends, summed
// over its (row, head) tasks.
func batchRows(b model.AttendBatch) int {
	if b.Rows <= 1 {
		return b.N * b.Heads
	}
	n := 0
	for _, rows := range b.Ns {
		n += rows
	}
	return n * b.Heads
}
