package simcore

// fifo is a queue over one reused buffer: pop advances a head index
// instead of reslicing, so the buffer's front is reused once the queue
// drains, and push compacts the live tail to the front before it would
// grow a buffer that is at least half consumed. A queue that keeps
// filling and draining allocates nothing once its buffer is large enough.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// pop removes and returns the head element; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// waitEntry is a parked process in a wait queue. The entry is live while
// the process's waitGen still equals gen: the process's cancel function,
// which Interrupt calls, bumps waitGen, so an interrupted waiter's entry
// goes stale in place and costs no allocation to revoke.
type waitEntry struct {
	p   *Proc
	gen uint32
}

// waitQueue is a FIFO of parked processes. Wakeups preserve arrival order,
// which keeps simulations deterministic.
type waitQueue struct {
	q fifo[waitEntry]
}

// wait registers p at the tail and parks it until a wakeup pops it. It
// returns the interrupt cause if the process was interrupted.
func (q *waitQueue) wait(p *Proc) error {
	q.q.push(waitEntry{p: p, gen: p.waitGen})
	p.unblock = p.cancel
	return p.park()
}

// popLive removes and returns the first process whose entry is still
// live, or nil.
func (q *waitQueue) popLive() *Proc {
	for q.q.len() > 0 {
		if e := q.q.pop(); e.p.waitGen == e.gen {
			return e.p
		}
	}
	return nil
}

// wake schedules the wakeup of a process popped from a wait queue; the
// wakeup can no longer be revoked, so the process is not interruptible
// until it runs.
func (s *Sim) wake(p *Proc) {
	p.unblock = nil
	s.scheduleAt(s.now, nil, p)
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
func (g *Signal) Wait(p *Proc) error { return g.q.wait(p) }

// Fire wakes the longest-waiting process, if any, and reports whether one
// was woken. The wakeup is delivered as an immediate event, so the waiter
// resumes after the caller's current event completes.
func (g *Signal) Fire() bool {
	p := g.q.popLive()
	if p == nil {
		return false
	}
	g.sim.wake(p)
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
	buf     fifo[any]
	getters waitQueue
}

// NewChan creates a message queue.
func NewChan(sim *Sim) *Chan { return &Chan{sim: sim} }

// Put appends v without blocking and wakes the longest-waiting getter.
func (c *Chan) Put(v any) {
	c.buf.push(v)
	if p := c.getters.popLive(); p != nil {
		c.sim.wake(p)
	}
}

// Get removes and returns the head message, blocking while the queue is
// empty. It returns the interrupt cause if the caller was interrupted.
func (c *Chan) Get(p *Proc) (any, error) {
	for c.buf.len() == 0 {
		if err := c.getters.wait(p); err != nil {
			return nil, err
		}
	}
	return c.buf.pop(), nil
}
