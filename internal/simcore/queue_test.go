package simcore

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestCancelAfterFireOnRecycledSlot checks the generation-counter safety
// property: a handle to an event that already fired must stay inert even
// after its arena slot has been recycled for newer events, and must never
// cancel the slot's new occupant.
func TestCancelAfterFireOnRecycledSlot(t *testing.T) {
	s := New(1)
	var fired []string
	first := s.Schedule(1, func() { fired = append(fired, "first") })
	s.Run()

	// first's slot is now free; the next event reuses it.
	second := s.Schedule(1, func() { fired = append(fired, "second") })
	if second.idx != first.idx {
		t.Fatalf("slot not recycled: first idx %d, second idx %d", first.idx, second.idx)
	}
	if first.Live() {
		t.Fatal("stale handle reports Live")
	}

	first.Cancel() // must NOT cancel second, which now owns the slot
	if !second.Live() {
		t.Fatal("Cancel through a stale handle killed the slot's new event")
	}
	s.Run()
	if len(fired) != 2 || fired[1] != "second" {
		t.Fatalf("fired %v, want [first second]", fired)
	}

	// Cancel on the zero Event is a no-op too.
	var zero Event
	zero.Cancel()
	if zero.Live() {
		t.Fatal("zero Event reports Live")
	}
}

// TestCancelAfterCancelCollected checks that a canceled event's handle stays
// inert after the kernel lazily collects and recycles its slot.
func TestCancelAfterCancelCollected(t *testing.T) {
	s := New(1)
	doomed := s.Schedule(1, func() { t.Error("canceled event fired") })
	s.Schedule(2, func() {})
	doomed.Cancel()
	s.Run() // collection pops the canceled event and recycles its slot

	replacement := s.Schedule(1, func() {})
	doomed.Cancel() // stale: must not touch replacement
	if !replacement.Live() {
		t.Fatal("stale Cancel hit a recycled slot's new event")
	}
	if got := s.q.live; got != 1 {
		t.Fatalf("pending events = %d, want 1", got)
	}
}

// TestEventTimeSurvivesFiring checks Time() keeps returning the scheduled
// time after the event fires (callers use it to filter handles post-run).
func TestEventTimeSurvivesFiring(t *testing.T) {
	s := New(1)
	e := s.Schedule(3.5, func() {})
	if e.Time() != 3.5 {
		t.Fatalf("Time() = %v before firing, want 3.5", e.Time())
	}
	s.Run()
	if e.Time() != 3.5 {
		t.Fatalf("Time() = %v after firing, want 3.5", e.Time())
	}
}

// TestEqualTimestampSeqOrder floods one instant with events interleaved with
// cancellations and requires exact schedule-order firing.
func TestEqualTimestampSeqOrder(t *testing.T) {
	s := New(1)
	var fired []int
	var evs []Event
	for i := 0; i < 100; i++ {
		i := i
		evs = append(evs, s.Schedule(7, func() { fired = append(fired, i) }))
	}
	for i := 0; i < 100; i += 3 {
		evs[i].Cancel()
	}
	s.Run()
	want := make([]int, 0, 100)
	for i := 0; i < 100; i++ {
		if i%3 != 0 {
			want = append(want, i)
		}
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("equal-timestamp order broken at %d: got %v", i, fired[i])
		}
	}
}

// TestRunUntilHorizonClamping pins the horizon behaviors: clock clamps to a
// finite horizon with pending events beyond it, a horizon between events
// leaves them intact, an infinite horizon leaves the clock on the last
// event, and canceled events at the horizon boundary do not advance time.
func TestRunUntilHorizonClamping(t *testing.T) {
	s := New(1)
	var fired []float64
	for _, d := range []float64{1, 2, 3, 10} {
		d := d
		s.Schedule(d, func() { fired = append(fired, d) })
	}
	if now := s.RunUntil(2.5); now != 2.5 {
		t.Fatalf("RunUntil(2.5) = %v", now)
	}
	if s.q.live != 2 {
		t.Fatalf("pending = %d, want 2", s.q.live)
	}
	if now := s.RunUntil(2.7); now != 2.7 {
		t.Fatalf("empty advance: RunUntil(2.7) = %v", now)
	}
	if len(fired) != 2 {
		t.Fatalf("horizon advance fired %v", fired)
	}
	if now := s.Run(); now != 10 {
		t.Fatalf("Run() = %v, want clock left on last event", now)
	}

	// A canceled event past the horizon must not be fired, and peeking at it
	// must not advance the clock beyond the horizon.
	s2 := New(1)
	e := s2.Schedule(5, func() { t.Error("canceled event fired") })
	e.Cancel()
	if now := s2.RunUntil(3); now != 3 {
		t.Fatalf("RunUntil over canceled tail = %v, want 3", now)
	}
	if now := s2.Run(); now != 3 {
		t.Fatalf("Run over canceled tail = %v, want clock unchanged at 3", now)
	}
}

// TestPendingEventsChurn cross-checks the O(1) live counter against a
// straight count through a randomized schedule/cancel/reschedule/fire churn,
// including double-cancels and cancels through stale handles.
func TestPendingEventsChurn(t *testing.T) {
	s := New(1)
	rng := rand.New(rand.NewSource(99))
	type rec struct {
		ev   Event
		live bool
	}
	var recs []*rec
	liveModel := 0
	fired := 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // schedule
			r := &rec{live: true}
			r.ev = s.Schedule(rng.Float64()*100, func() { r.live = false; fired++ })
			recs = append(recs, r)
			liveModel++
		case op < 8 && len(recs) > 0: // cancel (possibly stale or repeated)
			r := recs[rng.Intn(len(recs))]
			r.ev.Cancel()
			if r.live {
				r.live = false
				liveModel--
			}
		case op < 9: // fire one event
			before := s.q.live
			firedBefore := fired
			s.Step()
			liveModel -= fired - firedBefore
			if before == 0 && s.q.live != 0 {
				t.Fatalf("step %d: Step on empty queue changed pending", step)
			}
		default: // reschedule: cancel one, schedule another
			if len(recs) > 0 {
				r := recs[rng.Intn(len(recs))]
				if r.live {
					r.ev.Cancel()
					r.live = false
					liveModel--
				}
			}
			r := &rec{live: true}
			r.ev = s.Schedule(rng.Float64()*10, func() { r.live = false; fired++ })
			recs = append(recs, r)
			liveModel++
		}
		if got := s.q.live; got != liveModel {
			t.Fatalf("step %d: pending events = %d, model = %d", step, got, liveModel)
		}
	}
	s.Run()
	if got := s.q.live; got != 0 {
		t.Fatalf("pending events = %d after drain, want 0", got)
	}
}

// TestQueueOrderAgainstSortedReference is the property test comparing the
// 4-ary heap's firing order against a reference sorted slice: random
// workloads with heavily clustered timestamps and random cancellations must
// fire in exactly the order of a stable sort of the surviving events by
// (time, schedule order).
func TestQueueOrderAgainstSortedReference(t *testing.T) {
	type ref struct {
		t        float64
		id       int
		canceled bool
	}
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := New(1)
		n := 1 + rng.Intn(80)
		model := make([]*ref, n)
		evs := make([]Event, n)
		var fired []int
		for i := 0; i < n; i++ {
			// Cluster times onto half-integers so duplicates are common.
			at := math.Floor(rng.Float64()*8) / 2
			model[i] = &ref{t: at, id: i}
			id := i
			evs[i] = s.At(at, func() { fired = append(fired, id) })
		}
		for i := range evs {
			if rng.Intn(5) == 0 {
				evs[i].Cancel()
				model[i].canceled = true
			}
		}
		s.Run()

		var want []*ref
		for _, r := range model {
			if !r.canceled {
				want = append(want, r)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].t < want[j].t })
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, reference has %d", trial, len(fired), len(want))
		}
		for i, r := range want {
			if fired[i] != r.id {
				t.Fatalf("trial %d: position %d fired event %d, reference says %d",
					trial, i, fired[i], r.id)
			}
		}
	}
}
