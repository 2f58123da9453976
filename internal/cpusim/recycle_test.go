package cpusim

import (
	"errors"
	"testing"

	"grads/internal/simcore"
)

// TestInterruptedCompletionIsNotResumed finishes two tasks in one
// completion batch. Resuming the first task's process interrupts the
// second's, which moves on to a 100 s sleep; the batch must not then
// resume that process as if its task had just finished, which would cut
// the sleep short at t=2.
func TestInterruptedCompletionIsNotResumed(t *testing.T) {
	s := simcore.New(1)
	c := New(s, "n0", 1)
	cause := errors.New("stop")
	var b *simcore.Proc
	s.Spawn("a", func(p *simcore.Proc) {
		if _, err := c.Compute(p, 1); err != nil {
			t.Errorf("a: %v", err)
		}
		b.Interrupt(cause)
	})
	var bErr error
	bDone, bWoke := -1.0, -1.0
	b = s.Spawn("b", func(p *simcore.Proc) {
		bDone, bErr = c.Compute(p, 1)
		p.Sleep(100)
		bWoke = p.Now()
	})
	s.Run()
	if !errors.Is(bErr, cause) || bDone != 1 {
		t.Fatalf("b's compute returned %v, %v; want 1, %v", bDone, bErr, cause)
	}
	if bWoke != 102 {
		t.Fatalf("b woke from its 100 s sleep at t=%v, want 102", bWoke)
	}
}

// BenchmarkCPUCompute is one steady-state Compute call: two workers
// with unequal task sizes share the CPU, so each call starts a task,
// re-splits the CPU, and completes in a batch that resumes its worker.
// One op is one call. It must not allocate.
func BenchmarkCPUCompute(b *testing.B) {
	s := simcore.New(1)
	c := New(s, "n0", 1e9)
	for i, iters := range []int{(b.N + 1) / 2, b.N / 2} {
		ops := 1e6 * float64(2+i)
		s.Spawn("w", func(p *simcore.Proc) {
			for j := 0; j < iters; j++ {
				c.Compute(p, ops)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}
