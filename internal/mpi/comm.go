package mpi

import "fmt"

// ReduceOp combines two payloads during reductions. Either argument may be
// nil when payloads are not carried (pure cost simulation).
type ReduceOp func(a, b any) any

// Comm is a communicator: an ordered mapping of virtual ranks onto physical
// world ranks. Applications address virtual ranks; the mapping can be
// remapped at run time, which implements the §4.2 communication hijack
// (the user's MPI_Comm_World only ever shows the active set).
type Comm struct {
	w    *World
	id   int
	phys []int // virtual rank -> physical rank
}

// NewComm creates a communicator over the given physical ranks, in virtual
// rank order. Physical ranks must be distinct and in range.
func NewComm(w *World, phys []int) *Comm {
	seen := make(map[int]bool, len(phys))
	for _, p := range phys {
		if p < 0 || p >= w.Size() || seen[p] {
			panic(fmt.Sprintf("mpi: bad comm physical ranks %v", phys))
		}
		seen[p] = true
	}
	w.comms++
	return &Comm{w: w, id: w.comms, phys: append([]int(nil), phys...)}
}

// WorldComm returns the identity communicator over all physical ranks.
func (w *World) WorldComm() *Comm {
	phys := make([]int, w.Size())
	for i := range phys {
		phys[i] = i
	}
	return NewComm(w, phys)
}

// Size returns the communicator's virtual size.
func (c *Comm) Size() int { return len(c.phys) }

// Phys returns the physical rank currently bound to virtual rank v.
func (c *Comm) Phys(v int) int { return c.phys[v] }

// Ranks returns a copy of the virtual-to-physical mapping.
func (c *Comm) Ranks() []int { return append([]int(nil), c.phys...) }

// Rank returns the calling process's virtual rank in the communicator, or
// -1 if the process is not currently mapped (an inactive swap process).
func (c *Comm) Rank(ctx *Ctx) int {
	for v, p := range c.phys {
		if p == ctx.PhysRank() {
			return v
		}
	}
	return -1
}

// Remap binds virtual rank v to a new physical rank. The caller (the swap
// runtime) must ensure the communicator is quiescent. It panics if the
// physical rank is already mapped to a different virtual rank.
func (c *Comm) Remap(v, phys int) {
	for ov, op := range c.phys {
		if op == phys && ov != v {
			panic(fmt.Sprintf("mpi: phys rank %d already mapped to virtual %d", phys, ov))
		}
	}
	c.phys[v] = phys
}

// userTag isolates comm-level user messages from raw SendPhys traffic and
// from other communicators.
func (c *Comm) userTag(tag int) int {
	if tag < 0 {
		panic("mpi: user tags must be non-negative")
	}
	return 1<<20 + c.id<<24 + tag
}

// opTag isolates one collective's traffic per communicator.
func (c *Comm) opTag(op int) int { return 1<<21 + c.id<<24 + op }

// Collective opcodes.
const (
	opBarrier = iota
	opBcast
	opReduce
	opGather
	opScatter
)

// ctlBytes is the size of zero-payload control messages.
const ctlBytes = 64

// Send sends to a virtual rank through the communicator.
func (c *Comm) Send(ctx *Ctx, dstV, tag int, bytes float64, payload any) error {
	return ctx.SendPhys(c.phys[dstV], c.userTag(tag), bytes, payload)
}

// Recv receives from a virtual rank through the communicator. The source's
// physical binding is resolved at call time.
func (c *Comm) Recv(ctx *Ctx, srcV, tag int) (Msg, error) {
	return ctx.RecvPhys(c.phys[srcV], c.userTag(tag))
}

// mustRank returns ctx's virtual rank, panicking for non-members (calling a
// collective from outside the communicator is a programming error).
func (c *Comm) mustRank(ctx *Ctx) int {
	v := c.Rank(ctx)
	if v < 0 {
		panic(fmt.Sprintf("mpi: phys rank %d is not in comm", ctx.PhysRank()))
	}
	return v
}

// Barrier blocks until every member reaches it (flat gather + release).
func (c *Comm) Barrier(ctx *Ctx) error {
	_, err := c.Reduce(ctx, 0, ctlBytes, nil, nil)
	if err != nil {
		return err
	}
	_, err = c.Bcast(ctx, 0, ctlBytes, nil)
	return err
}

// Bcast broadcasts bytes (and payload) from virtual root along a binomial
// tree. Every member receives the root's payload as the return value.
func (c *Comm) Bcast(ctx *Ctx, root int, bytes float64, payload any) (any, error) {
	me := c.mustRank(ctx)
	size := c.Size()
	tag := c.opTag(opBcast)
	rel := (me - root + size) % size

	mask := 1
	for mask < size {
		if rel&mask != 0 {
			srcV := (rel - mask + root) % size
			m, err := ctx.RecvPhys(c.phys[srcV], tag)
			if err != nil {
				return nil, err
			}
			payload = m.Payload
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < size {
			dstV := (rel + mask + root) % size
			if err := ctx.SendPhys(c.phys[dstV], tag, bytes, payload); err != nil {
				return nil, err
			}
		}
		mask >>= 1
	}
	return payload, nil
}

// Reduce combines every member's payload at the virtual root using op
// (flat). Non-roots receive nil. A nil op keeps the root's own payload and
// just pays the communication cost.
func (c *Comm) Reduce(ctx *Ctx, root int, bytes float64, payload any, op ReduceOp) (any, error) {
	me := c.mustRank(ctx)
	tag := c.opTag(opReduce)
	if me != root {
		return nil, ctx.SendPhys(c.phys[root], tag, bytes, payload)
	}
	acc := payload
	for v := 0; v < c.Size(); v++ {
		if v == root {
			continue
		}
		m, err := ctx.RecvPhys(c.phys[v], tag)
		if err != nil {
			return nil, err
		}
		if op != nil {
			acc = op(acc, m.Payload)
		}
	}
	return acc, nil
}

// Allreduce reduces to virtual rank 0 and broadcasts the result; every
// member returns the combined payload.
func (c *Comm) Allreduce(ctx *Ctx, bytes float64, payload any, op ReduceOp) (any, error) {
	acc, err := c.Reduce(ctx, 0, bytes, payload, op)
	if err != nil {
		return nil, err
	}
	return c.Bcast(ctx, 0, bytes, acc)
}

// Gather collects every member's payload at the virtual root, returned as a
// slice indexed by virtual rank. Non-roots receive nil.
func (c *Comm) Gather(ctx *Ctx, root int, bytes float64, payload any) ([]any, error) {
	me := c.mustRank(ctx)
	tag := c.opTag(opGather)
	if me != root {
		return nil, ctx.SendPhys(c.phys[root], tag, bytes, payload)
	}
	out := make([]any, c.Size())
	out[root] = payload
	for v := 0; v < c.Size(); v++ {
		if v == root {
			continue
		}
		m, err := ctx.RecvPhys(c.phys[v], tag)
		if err != nil {
			return nil, err
		}
		out[v] = m.Payload
	}
	return out, nil
}

// Scatter distributes payloads[v] (each of the given size) from the root to
// every member; each member returns its own element. payloads is only read
// at the root.
func (c *Comm) Scatter(ctx *Ctx, root int, bytes float64, payloads []any) (any, error) {
	me := c.mustRank(ctx)
	tag := c.opTag(opScatter)
	if me == root {
		if payloads != nil && len(payloads) != c.Size() {
			panic("mpi: Scatter payload count != comm size")
		}
		var mine any
		for v := 0; v < c.Size(); v++ {
			var pv any
			if payloads != nil {
				pv = payloads[v]
			}
			if v == root {
				mine = pv
				continue
			}
			if err := ctx.SendPhys(c.phys[v], tag, bytes, pv); err != nil {
				return nil, err
			}
		}
		return mine, nil
	}
	m, err := ctx.RecvPhys(c.phys[root], tag)
	if err != nil {
		return nil, err
	}
	return m.Payload, nil
}

// Allgather collects every member's payload everywhere: a gather to virtual
// rank 0 followed by a broadcast of the combined slice.
func (c *Comm) Allgather(ctx *Ctx, bytes float64, payload any) ([]any, error) {
	all, err := c.Gather(ctx, 0, bytes, payload)
	if err != nil {
		return nil, err
	}
	got, err := c.Bcast(ctx, 0, bytes*float64(c.Size()), all)
	if err != nil {
		return nil, err
	}
	if got == nil {
		return nil, nil
	}
	return got.([]any), nil
}
