// Package cop defines the Configurable Object Program abstraction of
// Figure 1: an application encapsulated with its mapper (which decides how
// to map the application onto a set of resources) and its executable
// performance model (which estimates performance on a set of resources).
// The application manager, scheduler and rescheduler all drive applications
// exclusively through these interfaces.
package cop

import (
	"slices"
	"strings"
	"sync"

	"grads/internal/binder"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// Mapper determines how to map an application's tasks to a set of
// resources: given the available pool it selects and orders the nodes the
// application should run on.
type Mapper interface {
	Map(pool []*topology.Node, avail func(*topology.Node) float64) []*topology.Node
}

// PerformanceModel estimates the application's execution behavior on a
// resource set. It doubles as the rescheduler's Estimator.
type PerformanceModel interface {
	// RemainingTime predicts the remaining execution time on nodes given
	// per-node availability forecasts.
	RemainingTime(nodes []*topology.Node, avail func(*topology.Node) float64) float64
	// CheckpointBytes is the migration data footprint.
	CheckpointBytes() float64
	// RestartOverhead is the fixed restart cost on new resources.
	RestartOverhead() float64
}

// RunReport summarizes one execution segment of an application.
type RunReport struct {
	// Stopped is true when the segment ended in an SRS checkpoint-and-stop
	// rather than completion.
	Stopped bool
	// Duration is the application execution time of the segment, excluding
	// checkpoint I/O.
	Duration float64
	// CkptWrite and CkptRead are checkpoint I/O times within the segment.
	CkptWrite float64
	CkptRead  float64
}

// Recoverable is implemented by COPs that can roll back to their last
// committed checkpoint after a node failure (the fault-tolerance capability
// the paper's conclusion previews for VGrADS).
type Recoverable interface {
	// Rollback resets in-memory progress to the last committed checkpoint
	// and reports whether checkpoint data exists to restore from.
	Rollback() bool
}

// COP is a configurable object program: application code plus mapper plus
// performance model (Figure 1).
type COP interface {
	Name() string
	// Pkg is the compilation package the binder tailors per node.
	Pkg() binder.Package
	Mapper() Mapper
	Model() PerformanceModel
	// Run executes the application (one segment) on the bound nodes from
	// the calling simulated process. restart marks a post-migration
	// segment, which begins by reading checkpoints.
	Run(p *simcore.Proc, nodes []*topology.Node, restart bool) (RunReport, error)
}

// GreedyMapper selects the width fastest nodes by forecast effective speed,
// breaking ties by name; with SameSite it restricts the choice to the
// single best site (tightly coupled MPI applications).
type GreedyMapper struct {
	Width    int
	SameSite bool
}

// Map implements Mapper. It computes each live node's speed once, sorts
// the nodes in a pooled scratch slice, and allocates only its result.
func (m GreedyMapper) Map(pool []*topology.Node, avail func(*topology.Node) float64) []*topology.Node {
	if len(pool) == 0 || m.Width <= 0 {
		return nil
	}
	buf := rankedPool.Get().(*[]ranked)
	defer func() {
		clear(*buf)
		*buf = (*buf)[:0]
		rankedPool.Put(buf)
	}()
	// Failed nodes are never schedulable.
	rs := (*buf)[:0]
	for _, n := range pool {
		if n.Down() {
			continue
		}
		a := 1.0
		if avail != nil {
			a = avail(n)
		}
		rs = append(rs, ranked{n: n, speed: n.Spec.Flops() * a})
	}
	*buf = rs
	if !m.SameSite {
		slices.SortFunc(rs, fasterFirst)
		return nodesOf(rs[:min(len(rs), m.Width)])
	}
	// Per site: aggregate lock-step rate of its best min(width, |site|)
	// nodes = count * slowest-selected speed. Sites are visited in name
	// order and the first best rate wins.
	slices.SortFunc(rs, func(a, b ranked) int {
		if c := strings.Compare(a.n.Site().Name, b.n.Site().Name); c != 0 {
			return c
		}
		return fasterFirst(a, b)
	})
	var best []ranked
	bestRate := -1.0
	for i := 0; i < len(rs); {
		site := rs[i].n.Site().Name
		j := i + 1
		for j < len(rs) && rs[j].n.Site().Name == site {
			j++
		}
		sel := rs[i:min(j, i+m.Width)]
		if rate := float64(len(sel)) * sel[len(sel)-1].speed; rate > bestRate {
			bestRate, best = rate, sel
		}
		i = j
	}
	return nodesOf(best)
}

// ranked is a pool node with its forecast effective speed.
type ranked struct {
	n     *topology.Node
	speed float64
}

// rankedPool holds Map's scratch slices; a pool rather than one shared
// buffer because sharded kernels map on several goroutines at once.
var rankedPool = sync.Pool{New: func() any { return new([]ranked) }}

// fasterFirst orders nodes by descending speed, ties broken by name.
func fasterFirst(a, b ranked) int {
	switch {
	case a.speed > b.speed:
		return -1
	case a.speed < b.speed:
		return 1
	}
	return strings.Compare(a.n.Name(), b.n.Name())
}

// nodesOf copies the ranked nodes into a fresh slice, or returns nil.
func nodesOf(rs []ranked) []*topology.Node {
	if len(rs) == 0 {
		return nil
	}
	out := make([]*topology.Node, len(rs))
	for i, r := range rs {
		out[i] = r.n
	}
	return out
}
