// Package simcore provides a deterministic discrete-event simulation kernel
// with virtual time and goroutine-based simulated processes.
//
// The kernel is the substrate for the Grid emulator (our MicroGrid
// equivalent): the network model, CPU model, grid services, the MPI layer and
// the GrADS runtime all execute inside a single Sim. Exactly one goroutine —
// either the kernel or one simulated process — runs at any moment, so
// simulations are fully deterministic: identical inputs and seeds yield
// identical traces.
package simcore

import (
	"math"
	"math/rand"
	"sort"

	"grads/internal/telemetry"
)

// Sim is a discrete-event simulation. The zero value is not usable; create
// one with New.
type Sim struct {
	now   float64
	seq   int64
	q     eventQueue
	rng   *rand.Rand
	fired uint64

	nextProcID int
	liveProcs  map[int]*Proc

	stopped bool

	// Telemetry. tel is nil when observability is off; the cached metric
	// handles below are nil then too, making every instrumentation site a
	// single predictable branch (see BenchmarkSimcoreEventThroughput).
	tel       *telemetry.Telemetry
	cEvents   *telemetry.Counter
	cSpawns   *telemetry.Counter
	cSwitches *telemetry.Counter
}

// New creates a simulation whose random source is seeded with seed.
// Virtual time starts at 0 and is measured in seconds.
func New(seed int64) *Sim {
	return &Sim{
		rng:       rand.New(rand.NewSource(seed)),
		liveProcs: make(map[int]*Proc),
	}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// SetTelemetry attaches an observability hub to the kernel: its clock is
// bound to this simulation's virtual time and the kernel begins publishing
// its own counters (events fired, processes spawned, context switches) and
// process-lifecycle trace events into it. Passing nil detaches telemetry
// and restores the zero-cost path.
func (s *Sim) SetTelemetry(tel *telemetry.Telemetry) {
	s.tel = tel
	if tel == nil {
		s.cEvents, s.cSpawns, s.cSwitches = nil, nil, nil
		return
	}
	tel.SetClock(func() float64 { return s.now })
	s.cEvents = tel.Counter("simcore", "events_fired")
	s.cSpawns = tel.Counter("simcore", "procs_spawned")
	s.cSwitches = tel.Counter("simcore", "proc_switches")
}

// Telemetry returns the attached hub, or nil. Components built over the
// kernel use this to reach the simulation's observability layer.
func (s *Sim) Telemetry() *telemetry.Telemetry { return s.tel }

// Schedule runs fn after delay seconds of virtual time and returns the
// scheduled event, which may be canceled. A negative delay is treated as 0.
func (s *Sim) Schedule(delay float64, fn func()) Event {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// At runs fn at absolute virtual time t and returns the scheduled event.
// Scheduling in the past is clamped to the present.
func (s *Sim) At(t float64, fn func()) Event {
	return s.scheduleAt(t, fn, nil)
}

// scheduleAt is the single entry point onto the event queue. Exactly one of
// fn and proc is set: a proc event resumes the process without a per-call
// closure (the pooled resume path used by Sleep and the wait primitives).
// The clamp also maps a NaN time to the present, keeping the heap keys
// totally ordered.
func (s *Sim) scheduleAt(t float64, fn func(), proc *Proc) Event {
	if !(t > s.now) {
		t = s.now
	}
	s.seq++
	idx := s.q.alloc(t, s.seq, fn, proc)
	s.q.push(heapEntry{tb: math.Float64bits(t), ord: uint64(s.seq)<<ordIdxBits | uint64(idx)})
	s.q.live++
	return Event{s: s, t: t, idx: idx, gen: s.q.slots[idx].gen}
}

// Stop makes the current Run call return after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// Run processes events until no live events remain or Stop is called.
// It returns the final virtual time.
func (s *Sim) Run() float64 { return s.RunUntil(math.Inf(1)) }

// RunUntil processes events with firing times <= horizon, then advances the
// clock to min(horizon, next event time) and returns the current time.
// If horizon is +Inf the clock is left at the last fired event.
func (s *Sim) RunUntil(horizon float64) float64 {
	s.stopped = false
	for !s.stopped {
		idx := s.q.peekLive()
		if idx < 0 {
			break
		}
		if s.q.slots[idx].t > horizon {
			s.now = horizon
			return s.now
		}
		s.fire(idx)
	}
	if !math.IsInf(horizon, 1) && horizon > s.now {
		s.now = horizon
	}
	return s.now
}

// fire pops the queue's minimum — the live event in slot idx — recycles the
// slot before running the callback (so the callback may immediately reuse
// it for new events), advances the clock, and runs the callback.
func (s *Sim) fire(idx int32) {
	s.q.deleteMin()
	sl := &s.q.slots[idx]
	t, fn, proc := sl.t, sl.fn, sl.proc
	s.q.live--
	s.q.recycle(idx)
	s.now = t
	s.fired++
	s.cEvents.Add(1)
	if proc != nil {
		proc.run(nil)
	} else {
		fn()
	}
}

// NextEventTime returns the firing time of the earliest live event and true,
// or (0, false) when no live events remain. Conservative parallel runners use
// it to compute a lower bound on this kernel's next action without firing
// anything.
func (s *Sim) NextEventTime() (float64, bool) {
	idx := s.q.peekLive()
	if idx < 0 {
		return 0, false
	}
	return s.q.slots[idx].t, true
}

// RunBefore processes events with firing times strictly less than bound and
// returns the current time. Unlike RunUntil, the clock is NOT advanced to
// bound when the queue runs dry or only holds later events: the kernel stays
// at its last fired event, so new events injected afterwards at t >= now are
// never clamped forward. This is the round primitive for barrier-synchronous
// sharded execution, where bound is the round horizon (LBTS + lookahead).
func (s *Sim) RunBefore(bound float64) float64 {
	s.stopped = false
	for !s.stopped {
		idx := s.q.peekLive()
		if idx < 0 {
			break
		}
		if !(s.q.slots[idx].t < bound) {
			break
		}
		s.fire(idx)
	}
	return s.now
}

// Step fires exactly one event, if one exists, and reports whether it did.
func (s *Sim) Step() bool {
	idx := s.q.peekLive()
	if idx < 0 {
		return false
	}
	s.fire(idx)
	return true
}

// EventsFired returns how many kernel events have fired since the
// simulation was created, independent of telemetry being attached. Soak
// harnesses use it to size fault schedules in kernel events rather than
// virtual seconds.
func (s *Sim) EventsFired() uint64 { return s.fired }

// LiveProcs returns the names of processes that have been spawned and have
// not yet terminated, sorted for determinism. It is a debugging aid for
// detecting deadlocked simulations.
func (s *Sim) LiveProcs() []string {
	names := make([]string, 0, len(s.liveProcs))
	for _, p := range s.liveProcs {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}
