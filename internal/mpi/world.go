// Package mpi is a simulated message-passing layer over the emulated Grid,
// standing in for the MPI runtime the GrADS applications use.
//
// A World is a fixed set of physical processes, one per chosen node.
// Computation advances virtual time through each node's processor-sharing
// CPU; messages advance it through the flow-level network. A Comm maps
// virtual ranks onto physical processes and can be remapped at runtime,
// which is exactly the hook the §4.2 process-swapping rescheduler uses to
// hijack communication ("user communication calls to the active set are
// converted to communication calls to a subset of the full process set").
//
// The layer exposes an MPI-profiling-interface equivalent: per-process
// counters of compute time, communication time, bytes and iteration marks,
// which the Autopilot sensors feed to the contract monitor.
package mpi

import (
	"errors"
	"fmt"

	"grads/internal/simcore"
	"grads/internal/topology"
)

// ErrNodeLost is the interrupt cause delivered to processes whose hosting
// node failed (fault-tolerance extension).
var ErrNodeLost = errors.New("mpi: node lost")

// ErrWorldAborted is the interrupt cause delivered to the surviving
// processes of a failed world so that collectives blocked on dead peers
// unwind instead of hanging.
var ErrWorldAborted = errors.New("mpi: world aborted")

// Msg is a delivered message.
type Msg struct {
	Src     int // physical source rank
	Tag     int
	Bytes   float64
	Payload any
}

// Profile is the per-process counter set exposed through the profiling
// interface (the paper's PAPI + MPI profiling sensors).
type Profile struct {
	ComputeTime float64 // seconds spent computing
	CommTime    float64 // seconds blocked in communication
	BytesSent   float64
	MsgsSent    int
	Flops       float64
	Iteration   int     // last iteration mark
	IterationAt float64 // virtual time of the last mark
}

// World is a set of physical message-passing processes pinned to nodes.
type World struct {
	sim   *simcore.Sim
	grid  *topology.Grid
	name  string
	ranks []*Rank

	running     int
	done        *simcore.Signal
	failed      error
	exited      bool
	unsubscribe func()
	comms       int // communicators created; numbers their tag space
}

// Rank is one physical process of a World.
type Rank struct {
	world *World
	phys  int
	node  *topology.Node

	boxes map[int64]*simcore.Chan // (src,tag) -> queue
	prof  Profile
	proc  *simcore.Proc
}

// NewWorld creates a world with one process per node in placement. The
// processes are created but not started; call Start.
func NewWorld(sim *simcore.Sim, grid *topology.Grid, name string, placement []*topology.Node) *World {
	if len(placement) == 0 {
		panic("mpi: empty placement")
	}
	w := &World{sim: sim, grid: grid, name: name, done: simcore.NewSignal(sim)}
	for i, n := range placement {
		w.ranks = append(w.ranks, &Rank{
			world: w,
			phys:  i,
			node:  n,
			boxes: make(map[int64]*simcore.Chan),
		})
	}
	return w
}

// Size returns the number of physical processes.
func (w *World) Size() int { return len(w.ranks) }

// Grid returns the emulated Grid the world runs on.
func (w *World) Grid() *topology.Grid { return w.grid }

// Rank returns the physical process with the given rank.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Node returns the node hosting physical rank i.
func (w *World) Node(i int) *topology.Node { return w.ranks[i].node }

// Start spawns every process running body. body receives the per-process
// context. Start returns immediately; use Wait from a simulated process or
// Running/Err from event context to observe completion.
func (w *World) Start(body func(ctx *Ctx)) {
	w.running = len(w.ranks)
	// Grid-level crashes (chaos layer) must reach this world's processes:
	// subscribe for the lifetime of the run.
	w.unsubscribe = w.grid.OnNodeStateChange(func(n *topology.Node, down bool) {
		if down {
			w.FailNode(n.Name())
		}
	})
	for _, r := range w.ranks {
		r := r
		r.proc = w.sim.Spawn(fmt.Sprintf("%s[%d]", w.name, r.phys), func(p *simcore.Proc) {
			ctx := &Ctx{rank: r, proc: p}
			defer func() {
				w.running--
				if w.running == 0 {
					w.exited = true
					if w.unsubscribe != nil {
						w.unsubscribe()
						w.unsubscribe = nil
					}
					w.done.Broadcast()
				}
			}()
			body(ctx)
		})
	}
}

// Running returns the number of processes that have not terminated.
func (w *World) Running() int { return w.running }

// Fail records an application-level failure (first one wins) and aborts
// the world: every surviving process is interrupted with ErrWorldAborted so
// collectives blocked on the failed process unwind. Without this, a single
// rank's failure would deadlock its peers forever.
func (w *World) Fail(err error) {
	if w.failed != nil {
		return
	}
	w.failed = err
	w.abortSweep()
}

// abortSweep interrupts every blocked process; processes that were running
// (and therefore not interruptible) are retried shortly after, until the
// world drains.
func (w *World) abortSweep() {
	if w.running == 0 {
		return
	}
	stillRunning := false
	for _, r := range w.ranks {
		if r.proc == nil || !r.proc.Alive() {
			continue
		}
		if !r.proc.Interrupt(ErrWorldAborted) {
			stillRunning = true
		}
	}
	if stillRunning {
		w.sim.Schedule(1e-3, w.abortSweep)
	}
}

// FailNode marks the named node down and delivers ErrNodeLost to every
// process of this world hosted on it, then aborts the world. It returns
// the number of processes lost. Unknown nodes, nodes hosting no live
// process (including a second failure of the same node), and calls after
// the world has drained are all harmless no-ops returning 0. This is the
// fault-injection entry point of the fault-tolerance extension.
func (w *World) FailNode(nodeName string) int {
	if w.exited || w.running == 0 {
		return 0
	}
	lost := 0
	for _, r := range w.ranks {
		if r.node.Name() != nodeName {
			continue
		}
		r.node.SetDown(true)
		if r.proc != nil && r.proc.Alive() {
			r.proc.Interrupt(ErrNodeLost)
			lost++
		}
	}
	if lost > 0 {
		w.Fail(fmt.Errorf("%w: %s", ErrNodeLost, nodeName))
	}
	return lost
}

// Err returns the recorded failure, if any.
func (w *World) Err() error { return w.failed }

// Wait blocks the calling process until every world process terminates.
func (w *World) Wait(p *simcore.Proc) error {
	for w.running > 0 {
		if err := w.done.Wait(p); err != nil {
			return err
		}
	}
	return nil
}

// boxKey packs (src, tag) into a mailbox key.
func boxKey(src, tag int) int64 { return int64(src)<<32 | int64(uint32(tag)) }

// box returns (creating on demand) the queue for messages from src with tag.
func (r *Rank) box(src, tag int) *simcore.Chan {
	k := boxKey(src, tag)
	c := r.boxes[k]
	if c == nil {
		c = simcore.NewChan(r.world.sim, 0)
		r.boxes[k] = c
	}
	return c
}

// Profile returns a copy of the rank's counters.
func (r *Rank) Profile() Profile { return r.prof }

// NodeName returns the name of the node hosting this rank.
func (r *Rank) NodeName() string { return r.node.Name() }
