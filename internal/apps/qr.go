// Package apps provides the GrADS applications the paper's experiments run:
// the ScaLAPACK QR factorization COP used by the §4.1 stop/restart
// experiments, the N-body simulation used by the §4.2 process-swapping
// experiments, the EMAN bio-imaging refinement workflow of §3.3, and
// synthetic workflow generators for scheduler benchmarks.
package apps

import (
	"fmt"
	"math"

	"grads/internal/binder"
	"grads/internal/cop"
	"grads/internal/mpi"
	"grads/internal/simcore"
	"grads/internal/srs"
	"grads/internal/topology"
)

// QR is the ScaLAPACK QR factorization application, encapsulated as a COP:
// an iterative panel factorization over a 1-D block-cyclic matrix, written
// against the simulated MPI layer and instrumented with SRS checkpointing
// calls. The checkpointed user data is the matrix A and right-hand side B,
// as in the paper.
type QR struct {
	N  int // matrix dimension
	NB int // panel width

	// CheckpointEvery, when positive, makes every rank write a periodic
	// checkpoint each CheckpointEvery panels (committed collectively), so
	// the application can recover from node failures — the fault-tolerance
	// extension previewed in the paper's conclusion. Zero disables it.
	CheckpointEvery int

	grid *topology.Grid
	rss  *srs.RSS
	bind *binder.Binder

	maxProcs   int
	donePanels int

	// Telemetry for the performance contract (written by virtual rank 0).
	lastPanelActual    float64
	lastPanelPredicted float64

	curNodes []*topology.Node
	world    *mpi.World
	stopped  bool
}

// NewQR returns the COP for an n x n QR factorization in nb-wide panels.
func NewQR(grid *topology.Grid, rss *srs.RSS, b *binder.Binder, n, nb int) (*QR, error) {
	if n <= 0 || nb <= 0 || nb > n {
		return nil, fmt.Errorf("apps: bad QR dimensions n=%d nb=%d", n, nb)
	}
	return &QR{
		N: n, NB: nb,
		grid: grid, rss: rss, bind: b,
		maxProcs: 8,
	}, nil
}

// Name implements cop.COP.
func (q *QR) Name() string { return "scalapack-qr" }

// Pkg implements cop.COP.
func (q *QR) Pkg() binder.Package {
	return binder.Package{
		Name:      "scalapack-qr",
		IRBytes:   400e3,
		Libraries: []string{"scalapack", "blas", "srs", "autopilot"},
		IsMPI:     true,
	}
}

// Mapper implements cop.COP: QR is tightly coupled, so the mapper picks the
// best single-site set (up to maxProcs nodes) by forecast lock-step rate.
func (q *QR) Mapper() cop.Mapper { return cop.GreedyMapper{Width: q.maxProcs, SameSite: true} }

// SetMaxProcs bounds the mapper's width. The metascheduler uses it to fit
// the COP to a requested lease size instead of the default 8.
func (q *QR) SetMaxProcs(k int) {
	if k > 0 {
		q.maxProcs = k
	}
}

// Model implements cop.COP.
func (q *QR) Model() cop.PerformanceModel { return q }

// Panels returns the total number of panel steps.
func (q *QR) Panels() int { return (q.N + q.NB - 1) / q.NB }

// DonePanels returns the progress marker.
func (q *QR) DonePanels() int { return q.donePanels }

// CurNodes returns the nodes of the current (or last) execution segment.
func (q *QR) CurNodes() []*topology.Node { return q.curNodes }

// ckptKey is the stable checkpoint key of one rank in a P-process layout.
func ckptKey(me, nProcs int) string { return fmt.Sprintf("qr.r%dof%d", me, nProcs) }

// commitCheckpoints seals the checkpoint round just written: the restart
// point plus the exact key set of the current layout, so a restore is
// always layout-consistent and can fall back to the previous sealed round
// if this one rots.
func (q *QR) commitCheckpoints(nProcs, marker int) {
	keys := make([]string, nProcs)
	for i := range keys {
		keys[i] = ckptKey(i, nProcs)
	}
	q.rss.Commit(marker, keys)
}

// Rollback implements cop.Recoverable: after a failure, progress reverts to
// the newest checkpoint generation that still verifies (or to the
// beginning when none does).
func (q *QR) Rollback() bool {
	marker, ok := q.rss.PlanRestore()
	q.donePanels = marker
	q.lastPanelActual, q.lastPanelPredicted = 0, 0
	return ok
}

// FailCurrentNode injects a failure of the i-th node of the current
// execution segment, killing the application processes it hosts (the
// fault-injection entry point for experiments and tests). It returns the
// number of processes lost.
func (q *QR) FailCurrentNode(i int) int {
	if q.world == nil || i < 0 || i >= len(q.curNodes) {
		return 0
	}
	return q.world.FailNode(q.curNodes[i].Name())
}

// panelFlops returns the operation count of panel step k (factor the panel
// and update the trailing matrix): the k-th slab of the (4/3)N³ total.
func (q *QR) panelFlops(k int) float64 {
	m := float64(q.N - k*q.NB)
	mNext := float64(q.N - (k+1)*q.NB)
	if mNext < 0 {
		mNext = 0
	}
	return 4.0 / 3.0 * (m*m*m - mNext*mNext*mNext)
}

// remainingFlops returns the operation count left after donePanels.
func (q *QR) remainingFlops() float64 {
	sum := 0.0
	for k := q.donePanels; k < q.Panels(); k++ {
		sum += q.panelFlops(k)
	}
	return sum
}

// lockstepRate returns the aggregate rate of a node set under per-node
// availability: panel synchronization paces everyone at the slowest node.
func lockstepRate(nodes []*topology.Node, avail func(*topology.Node) float64) float64 {
	if len(nodes) == 0 {
		return 0
	}
	slowest := math.Inf(1)
	for _, n := range nodes {
		a := 1.0
		if avail != nil {
			a = avail(n)
		}
		if r := n.Spec.Flops() * a; r < slowest {
			slowest = r
		}
	}
	return slowest * float64(len(nodes))
}

// RemainingTime implements cop.PerformanceModel: remaining compute at the
// lock-step rate plus the remaining panel-broadcast communication.
func (q *QR) RemainingTime(nodes []*topology.Node, avail func(*topology.Node) float64) float64 {
	rate := lockstepRate(nodes, avail)
	if rate <= 0 {
		return math.Inf(1)
	}
	t := q.remainingFlops() / rate
	// Panel broadcasts: each remaining panel moves (rows x NB) doubles
	// across the site LAN.
	if len(nodes) > 0 {
		lan := nodes[0].Site().LAN
		commBytes := 0.0
		for k := q.donePanels; k < q.Panels(); k++ {
			rows := float64(q.N - k*q.NB)
			commBytes += rows * float64(q.NB) * 8
		}
		t += commBytes/lan.Capacity() + float64(q.Panels()-q.donePanels)*lan.Latency()*2
	}
	return t
}

// CheckpointBytes implements cop.PerformanceModel: matrix A plus vector B.
func (q *QR) CheckpointBytes() float64 {
	n := float64(q.N)
	return (n*n + n) * 8
}

// RestartOverhead implements cop.PerformanceModel: resource selection,
// modeling, bind and launch on a fresh node set.
func (q *QR) RestartOverhead() float64 {
	nodes := q.curNodes
	if len(nodes) == 0 {
		nodes = q.grid.Nodes()
		if len(nodes) > q.maxProcs {
			nodes = nodes[:q.maxProcs]
		}
	}
	return 2 + 10 + q.bind.EstimateOverhead(q.Pkg(), nodes) + 8
}

// PredictedPanelSensor and ActualPanelSensor expose the §4.1.1 contract
// signals: the duration the performance model promised for the most recent
// panel and the duration actually measured by the inserted sensors.
func (q *QR) PredictedPanelSensor() func() (float64, bool) {
	return func() (float64, bool) { return q.lastPanelPredicted, q.lastPanelPredicted > 0 }
}

// ActualPanelSensor returns the measured-duration sensor.
func (q *QR) ActualPanelSensor() func() (float64, bool) {
	return func() (float64, bool) { return q.lastPanelActual, q.lastPanelActual > 0 }
}

// Run implements cop.COP: one execution segment on nodes. With restart set
// the segment begins by reading and redistributing the previous segment's
// checkpoints (N-to-M).
func (q *QR) Run(p *simcore.Proc, nodes []*topology.Node, restart bool) (cop.RunReport, error) {
	sim := q.grid.Sim
	q.curNodes = nodes
	q.stopped = false
	// Reset the contract telemetry: the new segment promises new numbers.
	q.lastPanelActual, q.lastPanelPredicted = 0, 0
	startPanel := q.donePanels
	nProcs := len(nodes)
	world := mpi.NewWorld(sim, q.grid, "qr", nodes)
	q.world = world
	comm := world.WorldComm()

	// Nominal per-panel prediction for the contract (full availability:
	// that is what the application promised at launch). The prediction
	// must include communication, or the shrinking late panels — which are
	// latency-dominated — would show inflated ratios and fake violations.
	nominalRate := lockstepRate(nodes, nil)
	lan := nodes[0].Site().LAN
	depth := 0
	for 1<<depth < len(nodes) {
		depth++
	}
	predictPanel := func(k int) float64 {
		rows := float64(q.N - k*q.NB)
		bcast := float64(depth) * (lan.Latency() + rows*float64(q.NB)*8/lan.Capacity())
		verdict := float64(depth) * (lan.Latency() + 64/lan.Capacity())
		return q.panelFlops(k)/nominalRate + bcast + verdict
	}

	libs := make([]*srs.Lib, nProcs)
	segStart := p.Now()
	world.Start(func(ctx *mpi.Ctx) {
		me := ctx.PhysRank()
		lib := srs.Attach(q.rss, ctx)
		libs[me] = lib
		if restart {
			if _, err := lib.RestoreShare(me, nProcs); err != nil {
				world.Fail(err)
				return
			}
		}
		for k := startPanel; k < q.Panels(); k++ {
			panelStart := ctx.Now()
			rows := float64(q.N - k*q.NB)
			// Panel broadcast from its block-cyclic owner.
			if _, err := comm.Bcast(ctx, k%nProcs, rows*float64(q.NB)*8, nil); err != nil {
				world.Fail(err)
				return
			}
			// Local share of the panel factorization + trailing update.
			if err := ctx.Compute(q.panelFlops(k) / float64(nProcs)); err != nil {
				world.Fail(err)
				return
			}
			ctx.MarkIteration(k + 1)
			if me == 0 {
				q.donePanels = k + 1
				// Skip the segment's warm-up panel: it includes waiting
				// for peers still reading checkpoints, which is not an
				// execution-rate signal.
				if k > startPanel {
					q.lastPanelActual = ctx.Now() - panelStart
					q.lastPanelPredicted = predictPanel(k)
				}
			}
			// The stop check must be collective: rank 0 reads the SRS flag
			// and broadcasts the verdict so every rank stops after the
			// same panel (otherwise the next panel's broadcast deadlocks).
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
				if err := lib.StoreCheckpoint(ckptKey(me, nProcs), q.CheckpointBytes()/float64(nProcs)); err != nil {
					world.Fail(err)
					return
				}
				if me == 0 {
					q.commitCheckpoints(nProcs, q.donePanels)
					q.stopped = true
				}
				lib.AckStopped()
				return
			}
			// Periodic fault-tolerance checkpoint: every rank writes its
			// share, a barrier makes the set complete, then rank 0 commits
			// the restart point.
			if q.CheckpointEvery > 0 && (k+1-startPanel)%q.CheckpointEvery == 0 && k+1 < q.Panels() {
				if err := lib.StoreCheckpoint(ckptKey(me, nProcs), q.CheckpointBytes()/float64(nProcs)); err != nil {
					world.Fail(err)
					return
				}
				if err := comm.Barrier(ctx); err != nil {
					world.Fail(err)
					return
				}
				if me == 0 {
					q.commitCheckpoints(nProcs, k+1)
				}
			}
		}
	})
	if err := world.Wait(p); err != nil {
		return cop.RunReport{}, err
	}
	// Zero the contract telemetry: between segments (during restart
	// overheads) there is no execution for the monitor to judge, and stale
	// loaded-segment ratios must not trigger phantom violations.
	q.lastPanelActual, q.lastPanelPredicted = 0, 0
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
		Stopped:   q.stopped,
		Duration:  elapsed - maxWrite - maxRead,
		CkptWrite: maxWrite,
		CkptRead:  maxRead,
	}, nil
}
