package cpusim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"grads/internal/simcore"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleTaskFullSpeed(t *testing.T) {
	s := simcore.New(1)
	c := New(s, "n0", 100) // 100 ops/s
	var done float64
	s.Spawn("w", func(p *simcore.Proc) {
		n, err := c.Compute(p, 500)
		if err != nil || n != 500 {
			t.Errorf("Compute = %v, %v", n, err)
		}
		done = p.Now()
	})
	s.Run()
	if !almost(done, 5.0, 1e-9) {
		t.Fatalf("single task finished at %v, want 5.0", done)
	}
}

func TestTwoTasksShare(t *testing.T) {
	s := simcore.New(1)
	c := New(s, "n0", 100)
	var d1, d2 float64
	s.Spawn("a", func(p *simcore.Proc) {
		c.Compute(p, 500)
		d1 = p.Now()
	})
	s.Spawn("b", func(p *simcore.Proc) {
		c.Compute(p, 500)
		d2 = p.Now()
	})
	s.Run()
	// Both share the CPU for the whole run: each gets 50 ops/s.
	if !almost(d1, 10.0, 1e-9) || !almost(d2, 10.0, 1e-9) {
		t.Fatalf("finish times %v, %v; want 10.0 each", d1, d2)
	}
}

func TestUnequalTasksReleaseShare(t *testing.T) {
	s := simcore.New(1)
	c := New(s, "n0", 100)
	var dShort, dLong float64
	s.Spawn("short", func(p *simcore.Proc) {
		c.Compute(p, 100)
		dShort = p.Now()
	})
	s.Spawn("long", func(p *simcore.Proc) {
		c.Compute(p, 300)
		dLong = p.Now()
	})
	s.Run()
	// Shared at 50 ops/s until short finishes at t=2 (100 ops each);
	// long then has 200 ops left at 100 ops/s -> finishes at t=4.
	if !almost(dShort, 2.0, 1e-9) {
		t.Fatalf("short finished at %v, want 2.0", dShort)
	}
	if !almost(dLong, 4.0, 1e-9) {
		t.Fatalf("long finished at %v, want 4.0", dLong)
	}
}

func TestExternalLoadSlowsTask(t *testing.T) {
	s := simcore.New(1)
	c := New(s, "n0", 100)
	var done float64
	s.Spawn("w", func(p *simcore.Proc) {
		c.Compute(p, 400)
		done = p.Now()
	})
	// At t=2 (200 ops done), one competitive process arrives: rate halves.
	s.Schedule(2, func() { c.SetExternalLoad(1) })
	s.Run()
	// Remaining 200 ops at 50 ops/s -> 4 more seconds.
	if !almost(done, 6.0, 1e-9) {
		t.Fatalf("finished at %v, want 6.0", done)
	}
	if c.ExternalLoad() != 1 {
		t.Fatalf("ExternalLoad = %v", c.ExternalLoad())
	}
}

func TestLoadRemovedSpeedsUp(t *testing.T) {
	s := simcore.New(1)
	c := New(s, "n0", 100)
	c.SetExternalLoad(3)
	var done float64
	s.Spawn("w", func(p *simcore.Proc) {
		c.Compute(p, 100)
		done = p.Now()
	})
	s.Schedule(2, func() { c.SetExternalLoad(0) })
	s.Run()
	// 2s at 25 ops/s = 50 ops, then 50 ops at 100 ops/s = 0.5s.
	if !almost(done, 2.5, 1e-9) {
		t.Fatalf("finished at %v, want 2.5", done)
	}
}

func TestInterruptReturnsPartialWork(t *testing.T) {
	s := simcore.New(1)
	c := New(s, "n0", 100)
	cause := errors.New("checkpoint now")
	var got float64
	var err error
	p := s.Spawn("w", func(p *simcore.Proc) {
		got, err = c.Compute(p, 1000)
	})
	s.Schedule(3, func() { p.Interrupt(cause) })
	s.Run()
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want %v", err, cause)
	}
	if !almost(got, 300, 1e-6) {
		t.Fatalf("completed %v ops before interrupt, want 300", got)
	}
	if c.Running() != 0 {
		t.Fatalf("task leaked after interrupt: %d running", c.Running())
	}
}

func TestAvailabilityMetric(t *testing.T) {
	s := simcore.New(1)
	c := New(s, "n0", 100)
	if c.Availability() != 1.0 {
		t.Fatalf("idle availability = %v", c.Availability())
	}
	s.Spawn("w", func(p *simcore.Proc) { c.Compute(p, 1000) })
	s.Schedule(1, func() {
		// The app's own task does not count against availability.
		if !almost(c.Availability(), 1.0, 1e-12) {
			t.Errorf("availability with 1 own task = %v, want 1.0", c.Availability())
		}
		c.SetExternalLoad(2)
		if !almost(c.Availability(), 1.0/3.0, 1e-12) {
			t.Errorf("availability with 2 foreign procs = %v, want 1/3", c.Availability())
		}
	})
	s.Run()
}

func TestBusyTimeAccounting(t *testing.T) {
	s := simcore.New(1)
	c := New(s, "n0", 100)
	s.SpawnAt(5, "w", func(p *simcore.Proc) { c.Compute(p, 200) })
	s.Run()
	if !almost(c.BusyTime(), 2.0, 1e-9) {
		t.Fatalf("BusyTime = %v, want 2.0", c.BusyTime())
	}
}

func TestZeroOpsComputeYields(t *testing.T) {
	s := simcore.New(1)
	c := New(s, "n0", 100)
	var done float64 = -1
	s.Spawn("w", func(p *simcore.Proc) {
		n, err := c.Compute(p, 0)
		if n != 0 || err != nil {
			t.Errorf("Compute(0) = %v, %v", n, err)
		}
		done = p.Now()
	})
	s.Run()
	if done != 0 {
		t.Fatalf("zero compute took time: %v", done)
	}
}

// Property: total work conservation — with any mix of task sizes on one CPU
// (no external load), the last finish time equals total work / speed.
func TestQuickWorkConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 12 {
			return true
		}
		s := simcore.New(9)
		c := New(s, "n0", 50)
		total := 0.0
		var last float64
		for _, raw := range sizes {
			ops := float64(raw%5000) + 1
			total += ops
			s.Spawn("w", func(p *simcore.Proc) {
				c.Compute(p, ops)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		s.Run()
		return almost(last, total/50, 1e-6*(1+total/50))
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: processor sharing is fair — equal tasks started together finish
// together regardless of external load changes applied uniformly.
func TestQuickEqualTasksFinishTogether(t *testing.T) {
	f := func(n uint8, loadAt uint8, load uint8) bool {
		k := int(n%6) + 2
		s := simcore.New(17)
		c := New(s, "n0", 100)
		finishes := make([]float64, 0, k)
		for i := 0; i < k; i++ {
			s.Spawn("w", func(p *simcore.Proc) {
				c.Compute(p, 1000)
				finishes = append(finishes, p.Now())
			})
		}
		s.Schedule(float64(loadAt%20), func() { c.SetExternalLoad(float64(load % 5)) })
		s.Run()
		if len(finishes) != k {
			return false
		}
		for _, ft := range finishes {
			if !almost(ft, finishes[0], 1e-6) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
