// Package cpusim models a CPU as a processor-sharing server in virtual time.
//
// Each node in the emulated Grid owns one CPU. Simulated work is expressed in
// abstract operations (we use double-precision floating-point operations);
// all tasks currently computing on the CPU, plus any external competing load
// (the paper's "artificial load" and "competitive processes"), share the
// CPU's speed equally. Changing the task set or the external load re-splits
// the rate instantly, exactly like timesharing among CPU-bound processes.
package cpusim

import (
	"math"

	"grads/internal/simcore"
	"grads/internal/telemetry"
)

// CPU is a processor-sharing server. Create one with New.
type CPU struct {
	sim   *simcore.Sim
	name  string
	speed float64 // operations per second at full allocation

	extLoad float64 // number of competing CPU-bound external processes
	tasks   []*task
	nextSeq int64

	lastUpdate float64
	doneEvent  simcore.Event
	onDone     func() // completion handler, bound once to avoid per-reschedule allocs

	busyTime   float64 // integral of "CPU has >=1 task" for utilization stats
	lastBusyAt float64
}

type task struct {
	seq       int64
	remaining float64 // operations left
	total     float64
	proc      *simcore.Proc
	removed   bool
}

// New creates a CPU with the given speed in operations per second.
func New(sim *simcore.Sim, name string, speed float64) *CPU {
	if speed <= 0 {
		panic("cpusim: speed must be positive")
	}
	c := &CPU{sim: sim, name: name, speed: speed, lastUpdate: sim.Now()}
	c.onDone = c.onCompletion
	return c
}

// Speed returns the CPU's full-allocation speed in operations per second.
func (c *CPU) Speed() float64 { return c.speed }

// ExternalLoad returns the current number of competing external processes.
func (c *CPU) ExternalLoad() float64 { return c.extLoad }

// SetExternalLoad changes the competing external load. Each unit of load
// behaves like one CPU-bound process sharing the processor.
func (c *CPU) SetExternalLoad(n float64) {
	if n < 0 {
		n = 0
	}
	c.advance()
	c.extLoad = n
	c.reschedule()
	c.emitShare("external-load")
}

// emitShare publishes a CPU-share-change trace event: the per-task rate now
// in force, the task count and the external load.
func (c *CPU) emitShare(reason string) {
	tel := c.sim.Telemetry()
	if tel == nil {
		return
	}
	tel.Counter("cpusim", "share_changes").Inc()
	tel.Emit(telemetry.Event{
		Type: telemetry.EvCPUShare, Comp: "cpu:" + c.name,
		Args: []telemetry.Arg{
			telemetry.S("reason", reason),
			telemetry.I("tasks", len(c.tasks)),
			telemetry.F("ext_load", c.extLoad),
			telemetry.F("rate_ops_s", c.rate()),
		},
	})
}

// Running returns the number of simulated tasks currently computing.
func (c *CPU) Running() int { return len(c.tasks) }

// Availability returns the fraction of the CPU available to an application
// process, as the GrADS layers consume it: 1 / (1 + external load).
// Simulated application tasks are deliberately excluded — they belong to
// the applications whose remaining time is being estimated, and counting a
// job's own share against the node would double-charge every forecast
// (and make freshly freed nodes look busy).
func (c *CPU) Availability() float64 {
	return 1.0 / (1.0 + c.extLoad)
}

// BusyTime returns the cumulative virtual time during which at least one
// simulated task was computing.
func (c *CPU) BusyTime() float64 {
	t := c.busyTime
	if len(c.tasks) > 0 {
		t += c.sim.Now() - c.lastBusyAt
	}
	return t
}

// rate returns the per-task share in operations per second.
func (c *CPU) rate() float64 {
	n := float64(len(c.tasks)) + c.extLoad
	if n <= 0 {
		return c.speed
	}
	return c.speed / n
}

// advance progresses all running tasks to the current time at the rate that
// held since lastUpdate.
func (c *CPU) advance() {
	now := c.sim.Now()
	dt := now - c.lastUpdate
	if dt > 0 && len(c.tasks) > 0 {
		r := c.rate()
		for _, t := range c.tasks {
			t.remaining -= r * dt
			// Absorb floating-point residue so a task scheduled to
			// finish now is seen as finished (avoids zero-length
			// completion-event loops).
			if t.remaining < 1e-9+1e-12*t.total {
				t.remaining = 0
			}
		}
	}
	c.lastUpdate = now
}

// reschedule cancels any pending completion event and schedules one for the
// earliest task to finish under the current sharing.
func (c *CPU) reschedule() {
	c.doneEvent.Cancel()
	if len(c.tasks) == 0 {
		return
	}
	minRem := math.Inf(1)
	for _, t := range c.tasks {
		if t.remaining < minRem {
			minRem = t.remaining
		}
	}
	delay := minRem / c.rate()
	c.doneEvent = c.sim.Schedule(delay, c.onDone)
}

// onCompletion finishes every task whose work is exhausted and wakes its
// process, then reschedules.
func (c *CPU) onCompletion() {
	c.advance()
	now := c.sim.Now()
	rate := c.rate()
	var finished []*task
	var rest []*task
	for _, t := range c.tasks {
		// Done when no work remains, or when the residual completion time
		// is absorbed by floating point (now + dt == now) and the event
		// would loop forever without advancing the clock.
		if t.remaining <= 0 || now+t.remaining/rate == now {
			t.remaining = 0
			finished = append(finished, t)
		} else {
			rest = append(rest, t)
		}
	}
	c.setTasks(rest)
	c.reschedule()
	if len(finished) > 0 {
		c.emitShare("completion")
	}
	if tel := c.sim.Telemetry(); tel != nil {
		tel.Counter("cpusim", "tasks_completed").Add(uint64(len(finished)))
		for _, t := range finished {
			tel.Emit(telemetry.Event{
				Type: telemetry.EvTaskDone, Comp: "cpu:" + c.name, Name: t.proc.Name(),
				Args: []telemetry.Arg{telemetry.F("ops", t.total)},
			})
		}
	}
	for _, t := range finished {
		t.removed = true
		t.proc.Resume(nil)
	}
}

// setTasks replaces the task set, maintaining the busy-time integral.
func (c *CPU) setTasks(ts []*task) {
	wasBusy := len(c.tasks) > 0
	c.tasks = ts
	nowBusy := len(c.tasks) > 0
	now := c.sim.Now()
	switch {
	case wasBusy && !nowBusy:
		c.busyTime += now - c.lastBusyAt
	case !wasBusy && nowBusy:
		c.lastBusyAt = now
	}
}

// removeTask deletes t from the running set (used when a computing process
// is interrupted).
func (c *CPU) removeTask(t *task) {
	if t.removed {
		return
	}
	t.removed = true
	c.advance()
	rest := c.tasks[:0:0]
	for _, x := range c.tasks {
		if x != t {
			rest = append(rest, x)
		}
	}
	c.setTasks(rest)
	c.reschedule()
}

// Compute blocks the calling process until ops operations complete under
// processor sharing. It returns the number of operations actually completed
// and a nil error, or the partial count and the interrupt cause if the
// process was interrupted mid-computation (the unfinished task is removed).
func (c *CPU) Compute(p *simcore.Proc, ops float64) (completed float64, err error) {
	if ops <= 0 {
		return 0, p.Yield()
	}
	c.advance()
	c.nextSeq++
	t := &task{seq: c.nextSeq, remaining: ops, total: ops, proc: p}
	c.setTasks(append(c.tasks, t))
	c.reschedule()
	start := c.sim.Now()
	if tel := c.sim.Telemetry(); tel != nil {
		tel.Emit(telemetry.Event{
			Type: telemetry.EvTaskStart, Comp: "cpu:" + c.name, Name: p.Name(),
			Args: []telemetry.Arg{telemetry.F("ops", ops)},
		})
	}
	c.emitShare("task-start")
	if err = p.ParkWith(nil); err != nil {
		c.removeTask(t)
		c.emitShare("task-interrupted")
		return t.total - t.remaining, err
	}
	if tel := c.sim.Telemetry(); tel != nil {
		tel.Histogram("cpusim", "task_seconds").Observe(c.sim.Now() - start)
	}
	return t.total, nil
}
