package simcore

import "testing"

func TestCoalescerBatchesSameInstantTriggers(t *testing.T) {
	s := New(1)
	runs := 0
	var at []float64
	c := NewCoalescer(s, func() {
		runs++
		at = append(at, s.Now())
	})
	// Three triggers at t=0 and two at t=5 must produce exactly two runs.
	s.Schedule(0, c.Trigger)
	s.Schedule(0, c.Trigger)
	s.Schedule(0, c.Trigger)
	s.Schedule(5, c.Trigger)
	s.Schedule(5, c.Trigger)
	s.Run()
	if runs != 2 {
		t.Fatalf("callback ran %d times, want 2", runs)
	}
	if at[0] != 0 || at[1] != 5 {
		t.Fatalf("callback fired at %v, want [0 5]", at)
	}
	if trig, fired := c.calls, c.fired; trig != 5 || fired != 2 {
		t.Fatalf("Stats = (%d, %d), want (5, 2)", trig, fired)
	}
}

func TestCoalescerRunsAfterSameInstantEvents(t *testing.T) {
	s := New(1)
	var order []string
	c := NewCoalescer(s, func() { order = append(order, "flush") })
	s.Schedule(1, func() {
		c.Trigger()
		s.Schedule(0, func() { order = append(order, "later-event") })
		order = append(order, "mutation")
	})
	s.Run()
	// The coalesced run fires at t=1 but after the event scheduled by the
	// mutation itself is NOT required — only that it runs before time
	// advances. Verify it ran at the same instant, after the mutation.
	if len(order) != 3 || order[0] != "mutation" {
		t.Fatalf("order = %v", order)
	}
	if order[1] != "flush" && order[2] != "flush" {
		t.Fatalf("flush missing from same-instant batch: %v", order)
	}
}

func TestCoalescerFlushForcesPendingRun(t *testing.T) {
	s := New(1)
	runs := 0
	c := NewCoalescer(s, func() { runs++ })
	s.Schedule(2, func() {
		c.Trigger()
		if !c.ev.Live() {
			t.Error("Pending = false after Trigger")
		}
		c.Flush()
		if runs != 1 {
			t.Errorf("Flush did not run callback (runs=%d)", runs)
		}
		if c.ev.Live() {
			t.Error("Pending = true after Flush")
		}
		c.Flush() // no-op: nothing pending
	})
	s.Run()
	if runs != 1 {
		t.Fatalf("callback ran %d times, want exactly 1 (flushed run must cancel the scheduled one)", runs)
	}
}

func TestCoalescerRetriggersAfterFire(t *testing.T) {
	s := New(1)
	runs := 0
	c := NewCoalescer(s, func() { runs++ })
	s.Schedule(1, c.Trigger)
	s.Schedule(1.5, c.Trigger) // separate instant: separate run
	s.Run()
	if runs != 2 {
		t.Fatalf("callback ran %d times, want 2", runs)
	}
}
