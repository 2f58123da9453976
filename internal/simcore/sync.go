package simcore

// waiter pairs a parked process with the wait-queue bookkeeping needed to
// wake it or remove it on interrupt.
type waiter struct {
	p       *Proc
	removed bool
}

// waitQueue is a FIFO of parked processes. Wakeups preserve arrival order,
// which keeps simulations deterministic.
type waitQueue struct {
	ws []*waiter
}

// add registers p at the tail and returns its waiter record.
func (q *waitQueue) add(p *Proc) *waiter {
	w := &waiter{p: p}
	q.ws = append(q.ws, w)
	return w
}

// popLive removes and returns the first non-removed waiter, or nil.
func (q *waitQueue) popLive() *waiter {
	for len(q.ws) > 0 {
		w := q.ws[0]
		q.ws = q.ws[1:]
		if !w.removed {
			return w
		}
	}
	return nil
}

// Signal is a broadcast/wakeup condition for simulated processes.
// The zero value is not usable; create one with NewSignal.
type Signal struct {
	sim *Sim
	q   waitQueue
}

// NewSignal creates a Signal bound to sim.
func NewSignal(sim *Sim) *Signal { return &Signal{sim: sim} }

// Wait parks the calling process until Fire or Broadcast wakes it.
// It returns the interrupt cause if the process was interrupted.
func (g *Signal) Wait(p *Proc) error {
	w := g.q.add(p)
	p.unblock = func() { w.removed = true }
	return p.park()
}

// Fire wakes the longest-waiting process, if any, and reports whether one
// was woken. The wakeup is delivered as an immediate event, so the waiter
// resumes after the caller's current event completes.
func (g *Signal) Fire() bool {
	w := g.q.popLive()
	if w == nil {
		return false
	}
	w.removed = true
	w.p.unblock = nil
	g.sim.scheduleAt(g.sim.now, nil, w.p)
	return true
}

// Broadcast wakes all waiting processes in arrival order and returns the
// number woken.
func (g *Signal) Broadcast() int {
	n := 0
	for g.Fire() {
		n++
	}
	return n
}

// Chan is an unbounded FIFO message queue for simulated processes.
// Delivery is instantaneous in virtual time; transport costs are modeled by
// higher layers.
type Chan struct {
	sim     *Sim
	buf     []any
	getters waitQueue
}

// NewChan creates a message queue.
func NewChan(sim *Sim) *Chan { return &Chan{sim: sim} }

// Put appends v without blocking and wakes the longest-waiting getter.
func (c *Chan) Put(v any) {
	c.buf = append(c.buf, v)
	c.wakeGetter()
}

// Get removes and returns the head message, blocking while the queue is
// empty. It returns the interrupt cause if the caller was interrupted.
func (c *Chan) Get(p *Proc) (any, error) {
	for len(c.buf) == 0 {
		w := c.getters.add(p)
		p.unblock = func() { w.removed = true }
		if err := p.park(); err != nil {
			return nil, err
		}
	}
	v := c.buf[0]
	c.buf = c.buf[1:]
	return v, nil
}

func (c *Chan) wakeGetter() {
	if w := c.getters.popLive(); w != nil {
		w.removed = true
		w.p.unblock = nil
		c.sim.scheduleAt(c.sim.now, nil, w.p)
	}
}
