// Package swap implements the §4.2 process-swapping rescheduler: the MPI
// application is launched over more machines than it computes on; the
// active set does the work while the inactive set idles, and a swapping
// rescheduler exchanges slow active processes for faster inactive ones at
// iteration boundaries. Communication is hijacked through a remappable
// communicator, so the application only ever sees its active virtual ranks.
// The processor pool is fixed at launch and the data distribution never
// changes — cheap but less flexible than stop/restart, exactly the paper's
// trade-off.
package swap

import (
	"fmt"

	"grads/internal/mpi"
	"grads/internal/simcore"
	"grads/internal/telemetry"
)

// Order requests that virtual rank VRank move to physical process ToPhys.
type Order struct {
	VRank  int
	ToPhys int
}

// IterMark is one progress observation: virtual rank 0 completed Iter at
// Time (the series Figure 4 plots).
type IterMark struct {
	Time float64
	Iter int
}

// activation is the state-carrying handoff message to a newly active
// process.
type activation struct {
	vrank    int
	nextIter int
}

// done tells an inactive process the application has finished.
type doneMsg struct{}

// Runtime coordinates the active/inactive sets of one swappable
// application.
type Runtime struct {
	sim   *simcore.Sim
	world *mpi.World
	comm  *mpi.Comm

	stateBytes float64
	active     map[int]bool // phys rank -> active?
	mailbox    []*simcore.Chan

	pending  []Order
	inFlight int
	swapDone *simcore.Signal

	progress  []IterMark
	swaps     int
	swapTimes []float64
}

// NewRuntime creates the swap runtime: the first nActive physical ranks
// form the initial active set; the rest are inactive. stateBytes is the
// per-process application state a swap must move.
func NewRuntime(world *mpi.World, nActive int, stateBytes float64) *Runtime {
	if nActive <= 0 || nActive > world.Size() {
		panic(fmt.Sprintf("swap: bad active count %d of %d", nActive, world.Size()))
	}
	phys := make([]int, nActive)
	for i := range phys {
		phys[i] = i
	}
	rt := &Runtime{
		world:      world,
		comm:       mpi.NewComm(world, phys),
		stateBytes: stateBytes,
		active:     make(map[int]bool, world.Size()),
	}
	for i := 0; i < world.Size(); i++ {
		rt.active[i] = i < nActive
	}
	return rt
}

// bind attaches the runtime to the world's simulation (called from Run).
func (rt *Runtime) bind(sim *simcore.Sim) {
	if rt.swapDone != nil {
		return
	}
	rt.sim = sim
	rt.swapDone = simcore.NewSignal(sim)
	rt.mailbox = make([]*simcore.Chan, rt.world.Size())
	for i := range rt.mailbox {
		rt.mailbox[i] = simcore.NewChan(sim)
	}
}

// ActivePhys returns the physical ranks of the current active set in
// virtual rank order.
func (rt *Runtime) ActivePhys() []int { return rt.comm.Ranks() }

// InactivePhys returns the currently inactive physical ranks in ascending
// order.
func (rt *Runtime) InactivePhys() []int {
	var out []int
	for i := 0; i < rt.world.Size(); i++ {
		if !rt.active[i] {
			out = append(out, i)
		}
	}
	return out
}

// Swaps returns how many swaps have completed.
func (rt *Runtime) Swaps() int { return rt.swaps }

// SwapTimes returns the virtual times at which swaps completed.
func (rt *Runtime) SwapTimes() []float64 { return append([]float64(nil), rt.swapTimes...) }

// Progress returns the iteration trace of virtual rank 0.
func (rt *Runtime) Progress() []IterMark { return append([]IterMark(nil), rt.progress...) }

// RequestSwap schedules a swap to take effect at the next iteration
// boundary. It validates that vrank is active and toPhys inactive and not
// already targeted.
func (rt *Runtime) RequestSwap(vrank, toPhys int) error {
	if vrank < 0 || vrank >= rt.comm.Size() {
		return fmt.Errorf("swap: virtual rank %d out of range", vrank)
	}
	if rt.active[toPhys] {
		return fmt.Errorf("swap: phys %d is already active", toPhys)
	}
	for _, o := range rt.pending {
		if o.VRank == vrank || o.ToPhys == toPhys {
			return fmt.Errorf("swap: conflicting pending order %+v", o)
		}
	}
	rt.pending = append(rt.pending, Order{VRank: vrank, ToPhys: toPhys})
	if rt.sim != nil {
		if tel := rt.sim.Telemetry(); tel != nil {
			tel.Counter("swap", "orders").Inc()
			tel.Emit(telemetry.Event{
				Type: telemetry.EvSwapOrder, Comp: "swap",
				Args: []telemetry.Arg{telemetry.I("vrank", vrank), telemetry.I("to_phys", toPhys)},
			})
		}
	}
	return nil
}

// Body is one application iteration executed by each active process.
type Body func(ctx *mpi.Ctx, comm *mpi.Comm, vrank, iter int) error

// Run starts every world process and drives the iterate/swap loop until
// totalIters iterations complete. Inactive processes park until activated
// or until completion.
func (rt *Runtime) Run(sim *simcore.Sim, body Body, totalIters int) {
	rt.bind(sim)
	rt.world.Start(func(ctx *mpi.Ctx) {
		iter := 0
		for {
			vrank := rt.comm.Rank(ctx)
			if vrank < 0 {
				// Inactive: wait to be activated or dismissed.
				v, err := rt.mailbox[ctx.PhysRank()].Get(ctx.Proc())
				if err != nil {
					return
				}
				switch m := v.(type) {
				case doneMsg:
					return
				case activation:
					iter = m.nextIter
					continue // now active: loop re-reads vrank
				}
				continue
			}
			if iter >= totalIters {
				rt.finish(ctx, vrank)
				return
			}
			if err := body(ctx, rt.comm, vrank, iter); err != nil {
				rt.world.Fail(err)
				return
			}
			iter++
			if vrank == 0 {
				rt.progress = append(rt.progress, IterMark{Time: ctx.Now(), Iter: iter})
			}
			deactivated, err := rt.boundary(ctx, vrank, iter)
			if err != nil {
				rt.world.Fail(err)
				return
			}
			if deactivated {
				iter = 0 // parked; real iter arrives with the activation
			}
		}
	})
}

// finish dismisses the inactive pool (virtual rank 0 only) so every process
// terminates.
func (rt *Runtime) finish(ctx *mpi.Ctx, vrank int) {
	if vrank != 0 {
		return
	}
	for _, phys := range rt.InactivePhys() {
		rt.mailbox[phys].Put(doneMsg{})
	}
}

// boundary runs the swap protocol at an iteration boundary. It returns
// deactivated=true when the calling process handed its role away.
func (rt *Runtime) boundary(ctx *mpi.Ctx, vrank, nextIter int) (deactivated bool, err error) {
	if err := rt.comm.Barrier(ctx); err != nil {
		return false, err
	}
	var orders []Order
	if vrank == 0 {
		orders = rt.pending
		rt.pending = nil
		rt.inFlight = len(orders)
	}
	payload, err := rt.comm.Bcast(ctx, 0, 64, orders)
	if err != nil {
		return false, err
	}
	if payload != nil {
		orders = payload.([]Order)
	}
	if len(orders) == 0 {
		return false, nil
	}
	var mine *Order
	for i := range orders {
		if orders[i].VRank == vrank {
			mine = &orders[i]
			break
		}
	}
	if mine == nil {
		// Not swapped: wait for all swaps to complete before iterating on.
		for rt.inFlight > 0 {
			if err := rt.swapDone.Wait(ctx.Proc()); err != nil {
				return false, err
			}
		}
		return false, nil
	}
	// This process is being swapped out: remap first (the mapping is safe
	// to change because every active process is parked in this protocol),
	// then ship state to the replacement and hand over the role.
	from := ctx.PhysRank()
	rt.comm.Remap(vrank, mine.ToPhys)
	rt.active[from] = false
	rt.active[mine.ToPhys] = true
	grid := ctx.World().Grid()
	if rt.stateBytes > 0 {
		route := grid.Route(ctx.Node(), rt.world.Node(mine.ToPhys))
		if _, err := grid.Net.Transfer(ctx.Proc(), route, rt.stateBytes); err != nil {
			return false, err
		}
	}
	rt.mailbox[mine.ToPhys].Put(activation{vrank: vrank, nextIter: nextIter})
	rt.swaps++
	rt.swapTimes = append(rt.swapTimes, ctx.Now())
	if tel := rt.sim.Telemetry(); tel != nil {
		tel.Counter("swap", "swaps").Inc()
		tel.Emit(telemetry.Event{
			Type: telemetry.EvSwapDone, Comp: "swap",
			Args: []telemetry.Arg{
				telemetry.I("vrank", vrank),
				telemetry.I("from_phys", from),
				telemetry.I("to_phys", mine.ToPhys),
				telemetry.F("state_bytes", rt.stateBytes),
			},
		})
	}
	rt.inFlight--
	if rt.inFlight == 0 {
		rt.swapDone.Broadcast()
	}
	return true, nil
}
