package simcore

// The kernel's event queue is built for zero allocations on the
// schedule→fire path: event records live in an index-stable arena whose
// slots are recycled through a free list, and ordering is kept by a 4-ary
// min-heap of (time, seq) keys. The heap stores key copies next to the slot
// index, so sift comparisons never chase the arena, and the 4-ary shape
// halves the sift-down depth of a binary heap — pops, which dominate event
// churn, touch ~log4(n) cache lines instead of ~log2(n).
//
// Cancellation is lazy: a canceled event stays in the heap until it reaches
// the top and is discarded, exactly as the previous container/heap kernel
// did, so firing order (time, then schedule sequence) is unchanged.

// Event is a cancelable handle to a scheduled callback. The kernel pools
// event storage and recycles a record as soon as its event fires or its
// cancellation is collected, so a handle names (slot, generation) rather
// than pointing at the record: operations through a stale handle — one
// whose event already fired or whose slot now serves a newer event — are
// safe no-ops. The zero Event is a valid inert handle.
type Event struct {
	s   *Sim
	t   float64
	idx int32
	gen uint32
}

// Time returns the virtual time at which the event was scheduled to fire.
// It remains valid after the event fires or is canceled.
func (e Event) Time() float64 { return e.t }

// Live reports whether the event is still scheduled and not canceled.
func (e Event) Live() bool {
	if e.s == nil {
		return false
	}
	sl := &e.s.q.slots[e.idx]
	return sl.gen == e.gen && !sl.canceled
}

// Cancel prevents the event from firing. Canceling an event that already
// fired, was already canceled, or whose slot has been recycled for a newer
// event is a safe no-op.
func (e Event) Cancel() {
	if e.s == nil {
		return
	}
	q := &e.s.q
	sl := &q.slots[e.idx]
	if sl.gen != e.gen || sl.canceled {
		return
	}
	sl.canceled = true
	q.live--
}

// eventSlot is one pooled event record. gen increments every time the slot
// is recycled, invalidating all outstanding handles to the previous event.
// When proc is non-nil the event resumes that process (fn is unused); this
// lets Sleep and the wait primitives schedule wakeups without allocating a
// closure per park.
type eventSlot struct {
	fn       func()
	proc     *Proc
	t        float64
	seq      int64
	gen      uint32
	canceled bool
}

// heapEntry mirrors a scheduled slot's ordering key into the heap array,
// packed to 16 bytes so four children share one cache line. tb holds the
// firing time's IEEE-754 bits: virtual time is never negative (At clamps to
// the present and the clock starts at 0), so the bit patterns order exactly
// like the floats, with a single integer compare. ord packs (seq, slot
// index) with seq in the high bits, so equal-time events order by schedule
// sequence. The packing caps the arena at ordIdxBits slots and seq at
// 2^(64-ordIdxBits) events — ~2M simultaneously pending events and ~8.8e12
// total, far beyond any realistic run; alloc panics rather than corrupting
// order if the arena cap is ever hit.
type heapEntry struct {
	tb  uint64
	ord uint64
}

const ordIdxBits = 21

func (a heapEntry) before(b heapEntry) bool {
	if a.tb != b.tb {
		return a.tb < b.tb
	}
	return a.ord < b.ord
}

// eventQueue is the allocation-free priority queue: a 4-ary min-heap of
// (time, seq) keys over an index-stable slot arena with a free list. live
// counts scheduled, non-canceled events so the live count is O(1).
type eventQueue struct {
	slots []eventSlot
	free  []int32
	heap  []heapEntry
	live  int
}

// alloc takes a slot from the free list (growing the arena only when it is
// empty) and fills it. Steady-state simulations reuse slots indefinitely.
func (q *eventQueue) alloc(t float64, seq int64, fn func(), proc *Proc) int32 {
	var idx int32
	if n := len(q.free) - 1; n >= 0 {
		idx = q.free[n]
		q.free = q.free[:n]
	} else {
		if len(q.slots) >= 1<<ordIdxBits {
			panic("simcore: event arena full (more than 2^21 pending events)")
		}
		q.slots = append(q.slots, eventSlot{})
		idx = int32(len(q.slots) - 1)
	}
	sl := &q.slots[idx]
	sl.fn, sl.proc, sl.t, sl.seq, sl.canceled = fn, proc, t, seq, false
	return idx
}

// recycle retires a slot that has been popped from the heap: the generation
// bump invalidates outstanding handles, the callback references are dropped
// so the arena never retains dead closures, and the slot returns to the
// free list.
func (q *eventQueue) recycle(idx int32) {
	sl := &q.slots[idx]
	sl.gen++
	sl.fn, sl.proc = nil, nil
	q.free = append(q.free, idx)
}

// push inserts a key, sifting up through 4-ary parents.
func (q *eventQueue) push(e heapEntry) {
	h := append(q.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	q.heap = h
}

// deleteMin removes the root key, sifting the detached last element down
// through 4-ary levels. The heap must be non-empty.
func (q *eventQueue) deleteMin() {
	h := q.heap
	n := len(h) - 1
	last := h[n]
	q.heap = h[:n]
	h = h[:n]
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		mc := c
		for j := c + 1; j < end; j++ {
			if h[j].before(h[mc]) {
				mc = j
			}
		}
		if !h[mc].before(last) {
			break
		}
		h[i] = h[mc]
		i = mc
	}
	if n > 0 {
		h[i] = last
	}
}

// peekLive discards canceled events off the top of the heap (recycling
// their slots) and returns the arena index of the earliest live event, or
// -1 when no live events remain.
func (q *eventQueue) peekLive() int32 {
	for len(q.heap) > 0 {
		idx := int32(q.heap[0].ord & (1<<ordIdxBits - 1))
		if !q.slots[idx].canceled {
			return idx
		}
		q.deleteMin()
		q.recycle(idx)
	}
	return -1
}
