package netsim

import (
	"errors"
	"testing"

	"grads/internal/simcore"
)

// TestInterruptedCompletionIsNotResumed finishes two flows in one
// completion batch. Resuming the first flow's process interrupts the
// second's, which moves on to a 100 s sleep; the batch must not then
// resume that process as if its transfer had just finished, which would
// cut the sleep short at t=2.
func TestInterruptedCompletionIsNotResumed(t *testing.T) {
	s := simcore.New(1)
	n := New(s)
	la, lb := n.AddLink("a", 1, 0), n.AddLink("b", 1, 0)
	cause := errors.New("stop")
	var b *simcore.Proc
	s.Spawn("a", func(p *simcore.Proc) {
		if _, err := n.Transfer(p, []*Link{la}, 2); err != nil {
			t.Errorf("a: %v", err)
		}
		b.Interrupt(cause)
	})
	var bErr error
	bMoved, bWoke := -1.0, -1.0
	b = s.Spawn("b", func(p *simcore.Proc) {
		bMoved, bErr = n.Transfer(p, []*Link{lb}, 2)
		p.Sleep(100)
		bWoke = p.Now()
	})
	s.Run()
	if !errors.Is(bErr, cause) || bMoved != 2 {
		t.Fatalf("b's transfer returned %v, %v; want 2, %v", bMoved, bErr, cause)
	}
	if bWoke != 102 {
		t.Fatalf("b woke from its 100 s sleep at t=%v, want 102", bWoke)
	}
}

// TestFlowRecordsAreRecycled runs transfers back to back and requires
// the network to reuse one flow record for all of them.
func TestFlowRecordsAreRecycled(t *testing.T) {
	s := simcore.New(1)
	n := New(s)
	l := n.AddLink("l", 100, 0.01)
	s.Spawn("tx", func(p *simcore.Proc) {
		for i := 0; i < 50; i++ {
			if moved, err := n.Transfer(p, []*Link{l}, 100); err != nil || moved != 100 {
				t.Errorf("transfer %d: %v, %v", i, moved, err)
			}
		}
	})
	s.Run()
	if len(n.freeFlows) != 1 || n.freeFlows[0].gen != 50 {
		t.Fatalf("free list %d records; want 1 reused 50 times", len(n.freeFlows))
	}
}

// BenchmarkNetTransfer is one steady-state transfer over a two-link route,
// latency, flow start, reallocation and completion included. It must not
// allocate.
func BenchmarkNetTransfer(b *testing.B) {
	s := simcore.New(1)
	n := New(s)
	route := []*Link{n.AddLink("lan", 1e8, 1e-4), n.AddLink("wan", 1e6, 0.01)}
	iters := b.N
	s.Spawn("tx", func(p *simcore.Proc) {
		for i := 0; i < iters; i++ {
			n.Transfer(p, route, 1e4)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}
