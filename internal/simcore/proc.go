package simcore

import (
	"errors"

	"grads/internal/telemetry"
)

// ErrInterrupted is returned from a blocking operation when another process
// interrupts the blocked process.
var ErrInterrupted = errors.New("simcore: interrupted")

// ErrKilled is the interrupt cause delivered by Proc.Kill.
var ErrKilled = errors.New("simcore: killed")

// Proc is a simulated process: a goroutine whose execution is interleaved
// with the event kernel so that exactly one goroutine runs at a time.
// All methods on Proc must be called from the process's own goroutine,
// except Interrupt, Kill, Resume, Alive and Name, which are for external use.
//
// A process runs either dispatched, woken by an event the event loop fired,
// or synchronously, switched to by Resume, Interrupt or Kill. When a
// dispatched process parks or exits it passes control on to the next
// process itself (see Sim.handoff); a synchronously resumed one returns
// control to its caller.
type Proc struct {
	sim  *Sim
	id   int
	name string

	resume chan error    // -> proc: run (value is interrupt cause or nil)
	parked chan struct{} // proc -> synchronous caller: parked or terminated

	// unblock removes the process from whatever wait structure it is
	// parked on (timer, channel queue, signal list). Set on every park;
	// called by Interrupt before resuming with an error.
	unblock func()

	// sleepEv is the pending wakeup of the current Sleep. cancel is the
	// unblock function of Sleep and of every wait queue, bound once at
	// Spawn so that parking allocates nothing: it revokes sleepEv and
	// bumps waitGen, which turns the process's wait-queue entry stale.
	// Revoking the one that is not pending is harmless (see Event's
	// generation counters and waitEntry).
	sleepEv Event
	cancel  func()

	alive bool
	dead  bool

	// dispatched is set at each switch-in: true when the event loop woke
	// the process, false for a synchronous Resume or Interrupt.
	dispatched bool

	// waitGen is the generation a wait-queue entry of this process must
	// carry to be live. It shares the word after the flags, which keeps
	// Proc in the 96-byte size class (TestProcSizeClass).
	waitGen uint32
}

// Spawn creates a process named name executing body and schedules it to
// start at the current virtual time. It returns the process handle.
func (s *Sim) Spawn(name string, body func(p *Proc)) *Proc {
	return s.SpawnAt(s.now, name, body)
}

// SpawnAt creates a process that starts at absolute virtual time t.
func (s *Sim) SpawnAt(t float64, name string, body func(p *Proc)) *Proc {
	s.nextProcID++
	p := &Proc{
		sim:    s,
		id:     s.nextProcID,
		name:   name,
		resume: make(chan error),
		parked: make(chan struct{}),
		alive:  true,
	}
	p.cancel = func() {
		p.sleepEv.Cancel()
		p.waitGen++
	}
	s.liveProcs[p.id] = p
	s.cSpawns.Add(1)
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Type: telemetry.EvProcSpawn, Comp: "simcore", Name: name,
			Args: []telemetry.Arg{telemetry.I("id", p.id), telemetry.F("start_t", t)},
		})
	}
	go func() {
		// Wait for the start event before running the body.
		if err := <-p.resume; err == nil {
			body(p)
		}
		p.alive = false
		p.dead = true
		delete(s.liveProcs, p.id)
		if s.tel != nil {
			s.tel.Emit(telemetry.Event{
				Type: telemetry.EvProcExit, Comp: "simcore", Name: p.name,
				Args: []telemetry.Arg{telemetry.I("id", p.id)},
			})
		}
		if p.dispatched {
			s.handoff(p)
		} else {
			p.parked <- struct{}{}
		}
	}()
	s.scheduleAt(t, nil, p)
	return p
}

// run switches to the process synchronously: it hands control to the
// process goroutine and blocks the caller until the process parks again or
// terminates.
func (p *Proc) run(cause error) {
	if p.dead {
		return
	}
	p.switchIn(cause, false)
	p.resume <- cause
	<-p.parked
}

// switchIn counts and traces one resume of p, about to be given control.
func (p *Proc) switchIn(cause error, dispatched bool) {
	p.dispatched = dispatched
	p.sim.cSwitches.Add(1)
	if p.sim.tel != nil {
		p.sim.tel.Emit(telemetry.Event{
			Type: telemetry.EvProcResume, Comp: "simcore", Name: p.name,
			Args: []telemetry.Arg{telemetry.I("id", p.id), telemetry.B("interrupted", cause != nil)},
		})
	}
}

// park suspends the process until it is resumed. The caller must have
// arranged a wakeup (a scheduled event or a queue registration) and set
// p.unblock to a function that revokes that arrangement. park returns the
// interrupt cause, or nil for a normal wakeup.
func (p *Proc) park() error {
	if p.sim.tel != nil {
		p.sim.tel.Emit(telemetry.Event{
			Type: telemetry.EvProcPark, Comp: "simcore", Name: p.name,
			Args: []telemetry.Arg{telemetry.I("id", p.id)},
		})
	}
	if !p.dispatched {
		p.parked <- struct{}{}
	} else if p.sim.handoff(p) {
		p.unblock = nil
		return nil
	}
	err := <-p.resume
	p.unblock = nil
	return err
}

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.sim.now }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Alive reports whether the process has started and not yet terminated.
func (p *Proc) Alive() bool { return p.alive && !p.dead }

// Sleep suspends the process for d seconds of virtual time. It returns nil
// on normal wakeup or the interrupt cause if the process was interrupted.
// A non-positive d yields the processor for zero time (other events at the
// current time run first).
func (p *Proc) Sleep(d float64) error {
	if d < 0 || d != d {
		d = 0
	}
	p.sleepEv = p.sim.scheduleAt(p.sim.now+d, nil, p)
	p.unblock = p.cancel
	return p.park()
}

// SleepUntil suspends the process until absolute virtual time t (or the
// current time, whichever is later). It returns the interrupt cause, if any.
func (p *Proc) SleepUntil(t float64) error {
	return p.Sleep(t - p.sim.now)
}

// Yield lets all other events scheduled at the current time run first.
func (p *Proc) Yield() error { return p.Sleep(0) }

// Interrupt wakes the process with the given cause if it is blocked.
// The cause must be non-nil; the blocked operation returns it as its error.
// Interrupting a process that is not blocked (running or terminated) is a
// no-op and returns false. The target runs synchronously: Interrupt returns
// once it parks again or exits. Interrupt must be called from an event
// callback or another process, never from the target process itself.
func (p *Proc) Interrupt(cause error) bool {
	if cause == nil {
		cause = ErrInterrupted
	}
	if p.dead || p.unblock == nil {
		return false
	}
	p.unblock()
	p.unblock = nil
	p.run(cause)
	return true
}

// Kill interrupts the process with ErrKilled if it is blocked. Process
// bodies that honor the convention of exiting on ErrKilled will terminate.
func (p *Proc) Kill() bool { return p.Interrupt(ErrKilled) }

// ParkWith parks the calling process until another event calls Resume.
// It is the extension point for external blocking primitives (CPU and
// network models, resources). onInterrupt runs if the process is
// interrupted while parked, before the blocking call returns the cause; use
// it to revoke the wakeup arrangement. A nil onInterrupt is replaced by a
// no-op (the process remains interruptible either way).
func (p *Proc) ParkWith(onInterrupt func()) error {
	if onInterrupt == nil {
		onInterrupt = func() {}
	}
	p.unblock = onInterrupt
	return p.park()
}

// Resume wakes a process parked via ParkWith with the given cause (nil for
// a normal wakeup) and runs it synchronously: Resume returns once the
// process parks again or exits. It must be called from an event callback or
// from another process, and only while the target is parked; resuming a
// process that is not parked deadlocks the simulation.
func (p *Proc) Resume(cause error) {
	p.unblock = nil
	p.run(cause)
}
