// Package core implements the paper's primary contribution: the GrADS
// workflow scheduler (§3). A workflow is a DAG of application components;
// the scheduler ranks every eligible resource for every component using
// performance-model execution estimates and NWS-informed data-movement
// costs, collates the ranks into a performance matrix, runs the min-min,
// max-min and sufferage heuristics over it, and keeps the schedule with the
// minimum makespan.
package core

import (
	"fmt"

	"grads/internal/perfmodel"
	"grads/internal/topology"
)

// Component is one node of a workflow DAG.
type Component struct {
	Name string

	// Model estimates execution resource usage as a function of
	// ProblemSize (§3.2). A nil model makes the component free.
	Model       *perfmodel.ComponentModel
	ProblemSize float64

	// OutputBytes is the data volume this component hands to each
	// successor; InputBytes the volume staged from the workflow origin
	// for entry components.
	OutputBytes float64
	InputBytes  float64

	// Parallelizable components may be split into Width independent
	// sub-tasks by Expand (the EMAN classesbymra pattern).
	Parallelizable bool
	Width          int

	// Minimum resource requirements; resources failing them get an
	// infinite rank, per the paper.
	MinMemMB float64
	ReqArch  topology.Arch // empty = any architecture

	// SubOf is the index of the original component when this one was
	// produced by Expand, else -1.
	SubOf int
}

// Workflow is a DAG of components with dependency edges.
type Workflow struct {
	Components []*Component
	deps       [][]int // deps[i] = indices of predecessors of component i

	// Origin, if set, is where entry components' input data initially
	// lives; staging it to the chosen resource is charged as data cost.
	Origin *topology.Node
}

// NewWorkflow creates an empty workflow.
func NewWorkflow() *Workflow { return &Workflow{} }

// DepError reports an invalid dependency edge: a predecessor index that is
// out of range (including forward and self references, which would make the
// DAG cyclic or dangling), a duplicate edge, or an edge participating in a
// cycle.
type DepError struct {
	Comp   int    // index of the component whose edge is invalid
	Dep    int    // the offending predecessor index (-1 for cycles)
	Reason string // "out of range", "self", "forward", "duplicate", "cycle"
}

func (e *DepError) Error() string {
	if e.Dep < 0 {
		return fmt.Sprintf("core: component %d: dependency %s", e.Comp, e.Reason)
	}
	return fmt.Sprintf("core: component %d: dependency %d %s", e.Comp, e.Dep, e.Reason)
}

// checkDeps validates the predecessor list of the component about to become
// index next.
func checkDeps(next int, deps []int) *DepError {
	seen := make(map[int]bool, len(deps))
	for _, d := range deps {
		switch {
		case d == next:
			return &DepError{Comp: next, Dep: d, Reason: "self"}
		case d > next:
			return &DepError{Comp: next, Dep: d, Reason: "forward"}
		case d < 0:
			return &DepError{Comp: next, Dep: d, Reason: "out of range"}
		case seen[d]:
			return &DepError{Comp: next, Dep: d, Reason: "duplicate"}
		}
		seen[d] = true
	}
	return nil
}

// AddChecked appends a component with the given predecessor indices and
// returns its index. Predecessors must already exist — self, forward,
// negative and duplicate indices are rejected with a *DepError — which keeps
// the graph acyclic by construction.
func (w *Workflow) AddChecked(c *Component, deps ...int) (int, error) {
	if err := checkDeps(len(w.Components), deps); err != nil {
		return 0, err
	}
	if c.SubOf == 0 {
		c.SubOf = -1
	}
	w.Components = append(w.Components, c)
	w.deps = append(w.deps, append([]int(nil), deps...))
	return len(w.Components) - 1, nil
}

// Add is AddChecked for programmatic construction: invalid predecessor
// indices are a caller bug and panic with the same *DepError.
func (w *Workflow) Add(c *Component, deps ...int) int {
	i, err := w.AddChecked(c, deps...)
	if err != nil {
		panic(err)
	}
	return i
}

// Validate re-checks the whole dependency structure: every edge in range
// with no self/forward/duplicate references (the invariant Add enforces),
// which in particular proves the graph acyclic. It exists for workflows
// whose edges arrive from outside Add — deserialized or generated specs.
func (w *Workflow) Validate() error {
	for i := range w.Components {
		if err := checkDeps(i, w.deps[i]); err != nil {
			return err
		}
	}
	return nil
}

// Deps returns the predecessor indices of component i.
func (w *Workflow) Deps(i int) []int { return w.deps[i] }

// Succs returns the successor adjacency: succs[i] lists the components that
// depend on i, in increasing index order.
func (w *Workflow) Succs() [][]int {
	succs := make([][]int, w.Len())
	for i := range w.Components {
		for _, d := range w.deps[i] {
			succs[d] = append(succs[d], i)
		}
	}
	return succs
}

// Len returns the number of components.
func (w *Workflow) Len() int { return len(w.Components) }

// Levels returns the components grouped by topological level (distance from
// the entry components), a convenient view for printing DAGs.
func (w *Workflow) Levels() [][]int {
	level := make([]int, w.Len())
	maxLevel := 0
	for i := range w.Components {
		l := 0
		for _, d := range w.deps[i] {
			if level[d]+1 > l {
				l = level[d] + 1
			}
		}
		level[i] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	out := make([][]int, maxLevel+1)
	for i, l := range level {
		out[l] = append(out[l], i)
	}
	return out
}

// CriticalPathTime returns a lower bound on makespan: the longest
// dependency chain, with each component charged its fastest time over the
// given resources (zero data costs).
func (w *Workflow) CriticalPathTime(resources []*topology.Node) float64 {
	finish := make([]float64, w.Len())
	for i, c := range w.Components {
		ready := 0.0
		for _, d := range w.deps[i] {
			if finish[d] > ready {
				ready = finish[d]
			}
		}
		best := 0.0
		if c.Model != nil && len(resources) > 0 {
			best = c.Model.Time(c.ProblemSize, resources[0])
			for _, r := range resources[1:] {
				if t := c.Model.Time(c.ProblemSize, r); t < best {
					best = t
				}
			}
		}
		finish[i] = ready + best
	}
	max := 0.0
	for _, f := range finish {
		if f > max {
			max = f
		}
	}
	return max
}

// Expand splits every parallelizable component into Width independent
// sub-tasks, each carrying 1/Width of the work and output volume, preserving
// all dependencies (each sub-task depends on all of the original's
// predecessors, and the original's successors depend on every sub-task).
// Sub-tasks record the original component index in SubOf.
func (w *Workflow) Expand() *Workflow {
	out := NewWorkflow()
	out.Origin = w.Origin
	// expansion[i] = indices in out corresponding to original component i.
	expansion := make([][]int, w.Len())
	for i, c := range w.Components {
		var predIdx []int
		for _, d := range w.deps[i] {
			predIdx = append(predIdx, expansion[d]...)
		}
		if !c.Parallelizable || c.Width <= 1 {
			cc := *c
			cc.SubOf = -1
			expansion[i] = []int{out.Add(&cc, predIdx...)}
			continue
		}
		width := c.Width
		for k := 0; k < width; k++ {
			sub := &Component{
				Name:        fmt.Sprintf("%s.%d", c.Name, k),
				Model:       scaleModel(c.Model, 1/float64(width)),
				ProblemSize: c.ProblemSize,
				OutputBytes: c.OutputBytes / float64(width),
				InputBytes:  c.InputBytes / float64(width),
				MinMemMB:    c.MinMemMB,
				ReqArch:     c.ReqArch,
				SubOf:       i,
			}
			expansion[i] = append(expansion[i], out.Add(sub, predIdx...))
		}
	}
	return out
}

// scaleModel returns a copy of m with the flop curve scaled by f (the
// per-sub-task share of a data-parallel component).
func scaleModel(m *perfmodel.ComponentModel, f float64) *perfmodel.ComponentModel {
	if m == nil {
		return nil
	}
	scaled := *m
	coeffs := make(perfmodel.Poly, len(m.Flops))
	for i, c := range m.Flops {
		coeffs[i] = c * f
	}
	scaled.Flops = coeffs
	return &scaled
}
