package listsched

import (
	"fmt"
	"math"
	"sort"
)

// Slot is one occupied interval [Start, End) on a node timeline: either a
// scheduled task (Reserved false, Label = task name) or an advance
// reservation (Reserved true) that scheduling must leave untouched.
type Slot struct {
	Start, End float64
	Label      string
	Reserved   bool
}

// Timeline is one node's reservation timeline: a sorted, non-overlapping
// slot list supporting earliest-gap queries and insertion. Slots may touch
// ([a,b) then [b,c)) but never overlap. It is the structure the HEFT-style
// insertion policy and advance reservations share: an EASY-backfill queue
// that publishes its reservations here gets respected automatically,
// because EarliestFit never returns a start that would intersect one.
type Timeline struct {
	slots []Slot
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Slots returns the occupied intervals in start order. The caller must not
// mutate the returned slice.
func (t *Timeline) Slots() []Slot { return t.slots }

// End returns the end of the last occupied interval, or 0 for an empty
// timeline — the "node free" time of an append-only (non-backfilling)
// scheduler.
func (t *Timeline) End() float64 {
	if len(t.slots) == 0 {
		return 0
	}
	return t.slots[len(t.slots)-1].End
}

// Busy returns the total occupied duration, reservations included.
func (t *Timeline) Busy() float64 {
	sum := 0.0
	for _, s := range t.slots {
		sum += s.End - s.Start
	}
	return sum
}

// EarliestFit returns the earliest start ≥ ready at which a slot of length
// dur fits without overlapping any occupied interval: either inside a gap
// between existing slots or after the last one. A zero-length request fits
// at the first instant ≥ ready not interior to a slot.
func (t *Timeline) EarliestFit(ready, dur float64) float64 {
	start := ready
	for _, s := range t.slots {
		if s.End <= start {
			continue // entirely before the candidate start
		}
		if start+dur <= s.Start {
			return start // fits in the gap before this slot
		}
		start = s.End // collide: try right after this slot
	}
	return start
}

// insert places [start, start+dur) with the given label, keeping the slot
// list sorted, and fails if the interval would overlap an existing slot or
// is malformed.
func (t *Timeline) insert(start, dur float64, label string, reserved bool) error {
	end := start + dur
	if math.IsNaN(start) || math.IsInf(start, 0) || dur < 0 || math.IsInf(end, 1) {
		return fmt.Errorf("listsched: bad slot [%v, %v) %q", start, end, label)
	}
	i := sort.Search(len(t.slots), func(i int) bool { return t.slots[i].Start >= start })
	// Overlap can only involve the neighbor ending after our start or the
	// neighbor starting before our end.
	if i > 0 && t.slots[i-1].End > start {
		return fmt.Errorf("listsched: slot [%v, %v) %q overlaps [%v, %v) %q",
			start, end, label, t.slots[i-1].Start, t.slots[i-1].End, t.slots[i-1].Label)
	}
	if i < len(t.slots) && t.slots[i].Start < end {
		return fmt.Errorf("listsched: slot [%v, %v) %q overlaps [%v, %v) %q",
			start, end, label, t.slots[i].Start, t.slots[i].End, t.slots[i].Label)
	}
	t.slots = append(t.slots, Slot{})
	copy(t.slots[i+1:], t.slots[i:])
	t.slots[i] = Slot{Start: start, End: end, Label: label, Reserved: reserved}
	return nil
}

// Insert places a task slot [start, start+dur).
func (t *Timeline) Insert(start, dur float64, label string) error {
	return t.insert(start, dur, label, false)
}

// Reserve places an advance reservation [start, start+dur): an interval
// scheduling treats as occupied and the validity harness checks is still
// present, unmodified, in the final timeline.
func (t *Timeline) Reserve(start, dur float64, label string) error {
	return t.insert(start, dur, label, true)
}

// CheckInvariants verifies sortedness and pairwise non-overlap.
func (t *Timeline) CheckInvariants() error {
	for i, s := range t.slots {
		if s.End < s.Start {
			return fmt.Errorf("listsched: inverted slot [%v, %v) %q", s.Start, s.End, s.Label)
		}
		if i > 0 && t.slots[i-1].End > s.Start {
			return fmt.Errorf("listsched: slots [%v, %v) %q and [%v, %v) %q overlap",
				t.slots[i-1].Start, t.slots[i-1].End, t.slots[i-1].Label, s.Start, s.End, s.Label)
		}
	}
	return nil
}
