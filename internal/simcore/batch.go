package simcore

// Coalescer batches many triggers within one virtual instant into a single
// callback invocation. Components whose bookkeeping is expensive but
// idempotent (the network's max-min reallocation, for example) call Trigger
// on every state change; the callback then runs once, after all
// already-scheduled work at the current instant, no matter how many changes
// piled up. Because the callback fires before virtual time advances, no
// simulated process can ever observe the deferred state from a later
// timestamp.
//
// A Coalescer is single-threaded like the rest of the kernel: all methods
// must be called from kernel event context or a simulated process.
type Coalescer struct {
	sim    *Sim
	fn     func()
	fireFn func() // c.fire, bound once so Trigger allocates nothing
	ev     Event

	fired uint64 // number of callback runs (Trigger batches + Flushes)
	calls uint64 // number of Trigger calls absorbed
}

// NewCoalescer returns a coalescer that runs fn at most once per batch of
// same-instant triggers.
func NewCoalescer(sim *Sim, fn func()) *Coalescer {
	c := &Coalescer{sim: sim, fn: fn}
	c.fireFn = c.fire
	return c
}

// Trigger schedules the callback to run once at the current virtual time,
// after every event already scheduled at this instant. Further triggers
// before the callback runs are absorbed into the same pending run.
func (c *Coalescer) Trigger() {
	c.calls++
	if c.ev.Live() {
		return
	}
	c.ev = c.sim.Schedule(0, c.fireFn)
}

// fire runs as the coalesced event's callback; by then the kernel has
// retired the event, so c.ev is already stale and a new Trigger may arm it
// again from inside fn.
func (c *Coalescer) fire() {
	c.fired++
	c.fn()
}

// Flush runs the callback synchronously if a run is pending, canceling the
// scheduled event; it is a no-op otherwise. Readers that need the deferred
// state to be current (probes, snapshots) call Flush before looking.
func (c *Coalescer) Flush() {
	if !c.ev.Live() {
		return
	}
	c.ev.Cancel()
	c.fired++
	c.fn()
}
