package apps

import (
	"fmt"
	"math"

	"grads/internal/binder"
	"grads/internal/cop"
	"grads/internal/mpi"
	"grads/internal/nws"
	"grads/internal/simcore"
	"grads/internal/srs"
	"grads/internal/topology"
)

// TaskFarm is a parameter-sweep application encapsulated as a COP: Tasks
// independent work units of TaskFlops each, farmed over a (possibly
// cross-site) node set one task per worker per round, with SRS
// checkpointing of the completed-task marker and result accumulator. It is
// the loosely coupled counterpart to the QR COP in the metascheduler's job
// mix: it tolerates any lease width down to one node, which makes it the
// natural preemption victim.
type TaskFarm struct {
	Tasks     int     // total independent work units
	TaskFlops float64 // operations per unit

	// StateBytes is the checkpointed footprint (result accumulator); it is
	// what a stop-and-restart must move.
	StateBytes float64

	// Width is the maximum number of worker nodes the mapper requests.
	Width int

	// CheckpointEvery, when positive, commits a periodic checkpoint every
	// that many completed rounds so node failures lose bounded work.
	CheckpointEvery int

	grid    *topology.Grid
	rss     *srs.RSS
	bind    *binder.Binder
	weather *nws.Service

	doneTasks int
	curNodes  []*topology.Node
	world     *mpi.World
	stopped   bool

	// Contract sensors (written by virtual rank 0).
	lastRoundActual    float64
	lastRoundPredicted float64
}

// NewTaskFarm returns the COP. StateBytes defaults to 8 bytes per task
// (one accumulated double each) when non-positive.
func NewTaskFarm(grid *topology.Grid, rss *srs.RSS, b *binder.Binder, w *nws.Service, tasks int, taskFlops float64, width int) (*TaskFarm, error) {
	if tasks <= 0 || taskFlops <= 0 || width <= 0 {
		return nil, fmt.Errorf("apps: bad task farm shape tasks=%d flops=%g width=%d", tasks, taskFlops, width)
	}
	return &TaskFarm{
		Tasks: tasks, TaskFlops: taskFlops, StateBytes: 8 * float64(tasks),
		Width: width,
		grid:  grid, rss: rss, bind: b, weather: w,
	}, nil
}

// Name implements cop.COP.
func (f *TaskFarm) Name() string { return "task-farm" }

// Pkg implements cop.COP.
func (f *TaskFarm) Pkg() binder.Package {
	return binder.Package{
		Name:      "task-farm",
		IRBytes:   120e3,
		Libraries: []string{"srs", "autopilot", "mpi"},
		IsMPI:     true,
	}
}

// Mapper implements cop.COP: tasks are independent, so the farm takes the
// fastest nodes anywhere, across sites.
func (f *TaskFarm) Mapper() cop.Mapper { return cop.GreedyMapper{Width: f.Width, SameSite: false} }

// Model implements cop.COP.
func (f *TaskFarm) Model() cop.PerformanceModel { return f }

// CurNodes returns the nodes of the current (or last) execution segment.
func (f *TaskFarm) CurNodes() []*topology.Node { return f.curNodes }

// farmRate is the aggregate forecast rate of a node set: tasks are
// independent, so rates add (no lock-step penalty).
func farmRate(nodes []*topology.Node, avail func(*topology.Node) float64) float64 {
	sum := 0.0
	for _, n := range nodes {
		a := 1.0
		if avail != nil {
			a = avail(n)
		}
		sum += n.Spec.Flops() * a
	}
	return sum
}

// RemainingTime implements cop.PerformanceModel.
func (f *TaskFarm) RemainingTime(nodes []*topology.Node, avail func(*topology.Node) float64) float64 {
	rate := farmRate(nodes, avail)
	if rate <= 0 {
		return math.Inf(1)
	}
	return float64(f.Tasks-f.doneTasks) * f.TaskFlops / rate
}

// CheckpointBytes implements cop.PerformanceModel.
func (f *TaskFarm) CheckpointBytes() float64 { return f.StateBytes }

// RestartOverhead implements cop.PerformanceModel: selection, modeling,
// bind and launch on a fresh node set.
func (f *TaskFarm) RestartOverhead() float64 {
	nodes := f.curNodes
	if len(nodes) == 0 {
		nodes = f.grid.Nodes()
		if len(nodes) > f.Width {
			nodes = nodes[:f.Width]
		}
	}
	return 2 + 10 + f.bind.EstimateOverhead(f.Pkg(), nodes) + 3
}

// Rollback implements cop.Recoverable: progress reverts to the newest
// checkpoint generation that still verifies.
func (f *TaskFarm) Rollback() bool {
	marker, ok := f.rss.PlanRestore()
	f.doneTasks = marker
	f.lastRoundActual, f.lastRoundPredicted = 0, 0
	return ok
}

// farmCkptKey is the stable checkpoint key of one worker in a P-worker
// layout.
func farmCkptKey(me, nProcs int) string { return fmt.Sprintf("farm.r%dof%d", me, nProcs) }

// commitCheckpoints seals the checkpoint round just written under the
// current layout's key set.
func (f *TaskFarm) commitCheckpoints(nProcs, marker int) {
	keys := make([]string, nProcs)
	for i := range keys {
		keys[i] = farmCkptKey(i, nProcs)
	}
	f.rss.Commit(marker, keys)
}

// Run implements cop.COP: one execution segment on nodes. Each round farms
// one task per worker; rank 0 checks the SRS stop flag and broadcasts the
// verdict so every worker stops after the same round (the farm's only
// synchronization).
func (f *TaskFarm) Run(p *simcore.Proc, nodes []*topology.Node, restart bool) (cop.RunReport, error) {
	sim := f.grid.Sim
	f.curNodes = nodes
	f.stopped = false
	f.lastRoundActual, f.lastRoundPredicted = 0, 0
	startTask := f.doneTasks
	nProcs := len(nodes)
	world := mpi.NewWorld(sim, f.grid, "farm", nodes)
	f.world = world
	comm := world.WorldComm()

	nominalRate := farmRate(nodes, nil)

	libs := make([]*srs.Lib, nProcs)
	segStart := p.Now()
	world.Start(func(ctx *mpi.Ctx) {
		me := ctx.PhysRank()
		lib := srs.Attach(f.rss, ctx)
		libs[me] = lib
		if restart {
			if _, err := lib.RestoreShare(me, nProcs); err != nil {
				world.Fail(err)
				return
			}
		}
		round := 0
		for next := startTask; next < f.Tasks; next += nProcs {
			roundStart := ctx.Now()
			active := f.Tasks - next
			if active > nProcs {
				active = nProcs
			}
			// Worker me computes its task of the round, if it drew one.
			if me < active {
				if err := ctx.Compute(f.TaskFlops); err != nil {
					world.Fail(err)
					return
				}
			}
			round++
			ctx.MarkIteration(round)
			if me == 0 {
				f.doneTasks = next + active
				if round > 1 {
					f.lastRoundActual = ctx.Now() - roundStart
					f.lastRoundPredicted = float64(active) * f.TaskFlops / nominalRate
				}
			}
			// Collective stop check, as in the QR COP: rank 0 reads the
			// flag and broadcasts the verdict.
			stop := 0
			if me == 0 && lib.NeedStop() {
				stop = 1
			}
			verdict, err := comm.Bcast(ctx, 0, 64, stop)
			if err != nil {
				world.Fail(err)
				return
			}
			if verdict.(int) == 1 {
				if err := lib.StoreCheckpoint(farmCkptKey(me, nProcs), f.StateBytes/float64(nProcs)); err != nil {
					world.Fail(err)
					return
				}
				if me == 0 {
					f.commitCheckpoints(nProcs, f.doneTasks)
					f.stopped = true
				}
				lib.AckStopped()
				return
			}
			// Periodic fault-tolerance checkpoint.
			if f.CheckpointEvery > 0 && round%f.CheckpointEvery == 0 && next+active < f.Tasks {
				if err := lib.StoreCheckpoint(farmCkptKey(me, nProcs), f.StateBytes/float64(nProcs)); err != nil {
					world.Fail(err)
					return
				}
				if err := comm.Barrier(ctx); err != nil {
					world.Fail(err)
					return
				}
				if me == 0 {
					f.commitCheckpoints(nProcs, next+active)
				}
			}
		}
	})
	if err := world.Wait(p); err != nil {
		return cop.RunReport{}, err
	}
	f.lastRoundActual, f.lastRoundPredicted = 0, 0
	if err := world.Err(); err != nil {
		return cop.RunReport{}, err
	}
	elapsed := p.Now() - segStart
	var maxWrite, maxRead float64
	for _, lib := range libs {
		if lib == nil {
			continue
		}
		if w := lib.CheckpointWriteTime(); w > maxWrite {
			maxWrite = w
		}
		if r := lib.CheckpointReadTime(); r > maxRead {
			maxRead = r
		}
	}
	return cop.RunReport{
		Stopped:   f.stopped,
		Duration:  elapsed - maxWrite - maxRead,
		CkptWrite: maxWrite,
		CkptRead:  maxRead,
	}, nil
}
