package simcore

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestProcSizeClass pins Proc to the 96-byte size class: every spawned
// process allocates one, and a field that pushes it into the next class
// costs memory in every process-heavy run.
func TestProcSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Proc{}); sz > 96 {
		t.Fatalf("Proc is %d bytes, over the 96-byte size class", sz)
	}
}

// TestFifoMatchesSlice drives a fifo through seeded pushes and pops,
// across drains and compactions, against a plain slice queue.
func TestFifoMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q fifo[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		// Phases that mostly push, then mostly pop, so the queue both
		// drains and runs with a consumed prefix at full capacity.
		pushBias := 3 + (step/500)%2*4
		if len(ref) == 0 || rng.Intn(10) < pushBias {
			q.push(next)
			ref = append(ref, next)
			next++
		} else {
			got, want := q.pop(), ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("step %d: pop %d, want %d", step, got, want)
			}
		}
		if q.len() != len(ref) || !slices.Equal(q.buf[q.head:], ref) {
			t.Fatalf("step %d: queue %v, want %v", step, q.buf[q.head:], ref)
		}
	}
}

// TestInterruptedGetterEntryGoesStale parks three getters on a Chan,
// interrupts the middle one and parks it again at the tail: its first
// entry must be skipped, so messages go to a, c, then b.
func TestInterruptedGetterEntryGoesStale(t *testing.T) {
	s := New(1)
	c := NewChan(s)
	got := map[string]any{}
	var errs []error
	getter := func(name string) func(p *Proc) {
		return func(p *Proc) {
			v, err := c.Get(p)
			if err != nil {
				errs = append(errs, err)
				v, err = c.Get(p)
			}
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			got[name] = v
		}
	}
	s.Spawn("a", getter("a"))
	b := s.Spawn("b", getter("b"))
	s.Spawn("c", getter("c"))
	s.Schedule(1, func() { b.Interrupt(nil) })
	s.Schedule(2, func() { c.Put(1); c.Put(2); c.Put(3) })
	s.Run()
	if len(errs) != 1 || !errors.Is(errs[0], ErrInterrupted) {
		t.Fatalf("interrupt errors %v, want one ErrInterrupted", errs)
	}
	if got["a"] != 1 || got["c"] != 2 || got["b"] != 3 {
		t.Fatalf("messages went a=%v b=%v c=%v; want a=1 c=2 b=3", got["a"], got["b"], got["c"])
	}
}

var pingMsg any = new(int)

// BenchmarkKernelChanPingPong bounces a message between two processes
// over two Chans. One op is one Put and the Get it wakes. It must not
// allocate.
func BenchmarkKernelChanPingPong(b *testing.B) {
	s := New(1)
	ping, pong := NewChan(s), NewChan(s)
	rounds := (b.N + 1) / 2
	s.Spawn("ping", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			ping.Put(pingMsg)
			pong.Get(p)
		}
	})
	s.Spawn("pong", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			v, _ := ping.Get(p)
			pong.Put(v)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}
