// Package simcore provides a deterministic discrete-event simulation kernel
// with virtual time and goroutine-based simulated processes.
//
// The kernel is the substrate for the Grid emulator (our MicroGrid
// equivalent): the network model, CPU model, grid services, the MPI layer and
// the GrADS runtime all execute inside a single Sim. Exactly one goroutine —
// the host (the caller of Run, RunUntil, RunBefore or Step) or one simulated
// process — runs at any moment, so simulations are fully deterministic:
// identical inputs and seeds yield identical traces.
//
// Event callbacks always run on the host goroutine. A process wakeup the
// event loop fires dispatches the process; when that process parks or
// exits it continues the loop itself, handing control straight to the
// process the next event wakes (or carrying on, if that is itself) and
// back to the host only for a callback or at the end of the call. A
// synchronous switch — Proc.Resume, Interrupt or Kill — instead runs the
// target until it parks and then returns to its caller.
//
// Parking allocates nothing. Event records are recycled through the
// arena's free list, and an Event handle carries its slot's generation, so
// a stale handle is inert. Wait queues (Signal, Chan) hold (process,
// generation) entries in reused buffers: a process's once-bound cancel
// function, which Interrupt calls, bumps the process's wait generation and
// so turns its queued entry stale in place, and a wakeup skips stale
// entries. Components that recycle their own per-operation records (the
// network's flows, the CPU's tasks) follow the same rule: a reference
// taken before a record is released names the old generation, and using
// it is a no-op.
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

	// The limits of the running RunUntil, RunBefore or Step call, applied
	// by next: an event later than limit stays queued, and budget counts
	// the events the call may still fire.
	limit  float64
	budget uint64

	// host carries control back to the goroutine that called RunUntil,
	// RunBefore or Step when a dispatched process cannot hand it to the
	// next process directly.
	host chan struct{}

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
		host:      make(chan struct{}),
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

// Run processes events until no live events remain. It returns the final
// virtual time.
func (s *Sim) Run() float64 { return s.RunUntil(math.Inf(1)) }

// RunUntil processes events with firing times <= horizon, then advances the
// clock to min(horizon, next event time) and returns the current time.
// If horizon is +Inf the clock is left at the last fired event.
func (s *Sim) RunUntil(horizon float64) float64 {
	s.run(horizon, math.MaxUint64)
	// A live event left behind lies past the horizon.
	if s.q.peekLive() >= 0 || !math.IsInf(horizon, 1) && horizon > s.now {
		s.now = horizon
	}
	return s.now
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
	// t < bound is t <= the float just below bound; NaN admits nothing.
	limit := math.Inf(-1)
	if bound == bound {
		limit = math.Nextafter(bound, limit)
	}
	s.run(limit, math.MaxUint64)
	return s.now
}

// Step fires exactly one event, if one exists, and reports whether it did.
func (s *Sim) Step() bool {
	fired := s.fired
	s.run(math.Inf(1), 1)
	return s.fired != fired
}

// run is the event loop of RunUntil, RunBefore and Step, executed on the
// host goroutine (the one that called them). It installs the call's limits
// for next, runs callbacks itself and dispatches each process wakeup to its
// process, then waits on host until the chain of processes that wakeup
// started hands control back.
func (s *Sim) run(limit float64, budget uint64) {
	s.limit, s.budget = limit, budget
	for idx := s.next(); idx >= 0; idx = s.next() {
		fn, p := s.take(idx)
		switch {
		case fn != nil:
			fn()
		case !p.dead:
			p.switchIn(nil, true)
			p.resume <- nil
			<-s.host
		}
	}
}

// next returns the arena index of the earliest live event the current run
// call may fire, or -1 when the queue is dry, that event lies beyond the
// call's limit, or the call's event budget is spent.
func (s *Sim) next() int32 {
	if s.budget == 0 {
		return -1
	}
	idx := s.q.peekLive()
	if idx < 0 {
		return -1
	}
	if s.q.slots[idx].t > s.limit {
		return -1
	}
	return idx
}

// take pops the queue's minimum — the live event in slot idx — recycles the
// slot (so the event's code may immediately reuse it for new events),
// advances the clock and returns the event's callback or process.
func (s *Sim) take(idx int32) (func(), *Proc) {
	s.q.deleteMin()
	sl := &s.q.slots[idx]
	fn, proc := sl.fn, sl.proc
	s.now = sl.t
	s.q.live--
	s.q.recycle(idx)
	s.fired++
	s.budget--
	s.cEvents.Add(1)
	return fn, proc
}

// handoff passes control on from p, a dispatched process that is parking
// or exiting, so a process wakeup costs at most one goroutine switch. It
// retires the process wakeups the current run call may fire until one
// resumes a live process. If that is p itself, handoff reports true and p
// carries on with no channel operation; another process gets control
// through its resume channel. A callback event, or the end of the call,
// sends control back to the host goroutine instead, so callbacks never run
// on a process stack.
func (s *Sim) handoff(p *Proc) bool {
	for {
		idx := s.next()
		if idx < 0 || s.q.slots[idx].proc == nil {
			s.host <- struct{}{}
			return false
		}
		_, q := s.take(idx)
		if q.dead {
			continue
		}
		q.switchIn(nil, true)
		if q == p {
			return true
		}
		q.resume <- nil
		return false
	}
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
