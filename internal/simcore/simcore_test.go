package simcore

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(2.0, func() { order = append(order, 2) })
	s.Schedule(1.0, func() { order = append(order, 1) })
	s.Schedule(3.0, func() { order = append(order, 3) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 3.0 {
		t.Fatalf("final time = %v, want 3.0", s.Now())
	}
}

func TestScheduleTieBreakFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5.0, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEventCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(1.0, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if e.Live() {
		t.Fatal("event still live after Cancel")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New(1)
	var fired []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		s.Schedule(d, func() { fired = append(fired, d) })
	}
	now := s.RunUntil(2.5)
	if now != 2.5 {
		t.Fatalf("RunUntil returned %v, want 2.5", now)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2 only", fired)
	}
	s.Run()
	if len(fired) != 4 {
		t.Fatalf("resume after RunUntil fired %v", fired)
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	s := New(1)
	var at float64 = -1
	s.Schedule(5, func() {
		s.At(1.0, func() { at = s.Now() }) // in the past
	})
	s.Run()
	if at != 5.0 {
		t.Fatalf("past event fired at %v, want clamped to 5.0", at)
	}
}

func TestProcSleep(t *testing.T) {
	s := New(1)
	var times []float64
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			if err := p.Sleep(1.5); err != nil {
				t.Errorf("Sleep: %v", err)
			}
			times = append(times, p.Now())
		}
	})
	s.Run()
	want := []float64{1.5, 3.0, 4.5}
	if len(times) != 3 {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	s := New(1)
	start := -1.0
	s.SpawnAt(10, "late", func(p *Proc) { start = p.Now() })
	s.Run()
	if start != 10 {
		t.Fatalf("process started at %v, want 10", start)
	}
}

func TestProcInterrupt(t *testing.T) {
	s := New(1)
	cause := errors.New("migrate")
	var got error
	var when float64
	p := s.Spawn("victim", func(p *Proc) {
		got = p.Sleep(100)
		when = p.Now()
	})
	s.Schedule(5, func() {
		if !p.Interrupt(cause) {
			t.Error("Interrupt returned false for a blocked proc")
		}
	})
	s.Run()
	if !errors.Is(got, cause) {
		t.Fatalf("interrupt cause = %v, want %v", got, cause)
	}
	if when != 5 {
		t.Fatalf("woke at %v, want 5", when)
	}
	if s.q.live != 0 {
		t.Fatalf("stale wakeup event left behind: %d pending", s.q.live)
	}
}

func TestInterruptNotBlocked(t *testing.T) {
	s := New(1)
	p := s.Spawn("done", func(p *Proc) {})
	s.Run()
	if p.Interrupt(errors.New("x")) {
		t.Fatal("Interrupt succeeded on a dead proc")
	}
	if p.Alive() {
		t.Fatal("Alive() = true after termination")
	}
}

func TestProcExit(t *testing.T) {
	s := New(1)
	reached := false
	s.Spawn("exiter", func(p *Proc) {
		p.Sleep(1)
		p.Exit()
		reached = true
	})
	s.Run()
	if reached {
		t.Fatal("code after Exit ran")
	}
	if len(s.LiveProcs()) != 0 {
		t.Fatalf("live procs after exit: %v", s.LiveProcs())
	}
}

func TestSignalFireAndBroadcast(t *testing.T) {
	s := New(1)
	sig := NewSignal(s)
	var woken []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			if err := sig.Wait(p); err != nil {
				t.Errorf("Wait: %v", err)
			}
			woken = append(woken, name)
		})
	}
	s.Schedule(1, func() {
		if !sig.Fire() {
			t.Error("Fire found no waiters")
		}
	})
	s.Schedule(2, func() {
		if n := sig.Broadcast(); n != 2 {
			t.Errorf("Broadcast woke %d, want 2", n)
		}
	})
	s.Run()
	if len(woken) != 3 || woken[0] != "a" || woken[1] != "b" || woken[2] != "c" {
		t.Fatalf("wake order %v, want FIFO [a b c]", woken)
	}
}

func TestChanPutGet(t *testing.T) {
	s := New(1)
	c := NewChan(s)
	var got []int
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, err := c.Get(p)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			got = append(got, v.(int))
		}
	})
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(1)
			c.Put(i)
		}
	})
	s.Run()
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("messages out of order: %v", got)
		}
	}
}

func TestChanInterruptWhileBlocked(t *testing.T) {
	s := New(1)
	c := NewChan(s)
	var got error
	p := s.Spawn("consumer", func(p *Proc) {
		_, err := c.Get(p)
		got = err
	})
	s.Schedule(1, func() { p.Kill() })
	s.Run()
	if !errors.Is(got, ErrKilled) {
		t.Fatalf("Get returned %v, want ErrKilled", got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		s := New(42)
		var trace []float64
		for i := 0; i < 4; i++ {
			s.Spawn("w", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(s.Rand().Float64())
					trace = append(trace, p.Now())
				}
			})
		}
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: whatever the insertion order and times, events fire in
// nondecreasing time order.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []float64) bool {
		s := New(7)
		var fired []float64
		for _, d := range delays {
			if d < 0 {
				d = -d
			}
			if d > 1e9 || d != d { // cap and drop NaN
				d = 0
			}
			s.Schedule(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == len(delays)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(float64(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("Stop did not halt run: count=%d", count)
	}
}
