package mpi

import (
	"grads/internal/simcore"
	"grads/internal/topology"
)

// Ctx is the per-process handle application code runs against: it binds a
// physical rank to its simulated process and charges compute and
// communication costs to the right resources and counters.
type Ctx struct {
	rank *Rank
	proc *simcore.Proc
}

// PhysRank returns the process's physical rank in its world.
func (c *Ctx) PhysRank() int { return c.rank.phys }

// World returns the owning world.
func (c *Ctx) World() *World { return c.rank.world }

// Node returns the hosting node.
func (c *Ctx) Node() *topology.Node { return c.rank.node }

// Proc returns the underlying simulated process (for sleeps and interrupt
// targets).
func (c *Ctx) Proc() *simcore.Proc { return c.proc }

// Now returns the current virtual time.
func (c *Ctx) Now() float64 { return c.proc.Now() }

// Compute executes ops floating-point operations on the hosting node's CPU
// under processor sharing, charging compute time and flops to the profile.
// On interrupt it returns the cause with the partial work recorded.
func (c *Ctx) Compute(ops float64) error {
	start := c.proc.Now()
	done, err := c.rank.node.CPU.Compute(c.proc, ops)
	c.rank.prof.ComputeTime += c.proc.Now() - start
	c.rank.prof.Flops += done
	return err
}

// MarkIteration records an application progress mark (iteration number),
// which contract-monitor sensors read.
func (c *Ctx) MarkIteration(iter int) {
	c.rank.prof.Iteration = iter
	c.rank.prof.IterationAt = c.proc.Now()
}

// SendPhys sends a message to a physical rank: the sender blocks for the
// network transfer, then the message is deposited in the receiver's mailbox.
// Intra-node sends cost only a yield.
func (c *Ctx) SendPhys(dst, tag int, bytes float64, payload any) error {
	w := c.rank.world
	if dst < 0 || dst >= len(w.ranks) {
		panic("mpi: send to rank out of range")
	}
	start := c.proc.Now()
	route := w.grid.Route(c.rank.node, w.ranks[dst].node)
	if _, err := w.grid.Net.Transfer(c.proc, route, bytes); err != nil {
		c.rank.prof.CommTime += c.proc.Now() - start
		return err
	}
	c.rank.prof.CommTime += c.proc.Now() - start
	c.rank.prof.BytesSent += bytes
	c.rank.prof.MsgsSent++
	w.ranks[dst].box(c.rank.phys, tag).Put(Msg{
		Src: c.rank.phys, Tag: tag, Bytes: bytes, Payload: payload,
	})
	return nil
}

// RecvPhys blocks until a message from physical rank src with the given tag
// arrives, charging the wait to communication time.
func (c *Ctx) RecvPhys(src, tag int) (Msg, error) {
	start := c.proc.Now()
	v, err := c.rank.box(src, tag).Get(c.proc)
	c.rank.prof.CommTime += c.proc.Now() - start
	if err != nil {
		return Msg{}, err
	}
	return v.(Msg), nil
}
