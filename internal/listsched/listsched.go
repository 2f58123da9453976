// Package listsched is a pluggable DAG list-scheduling engine over the
// paper's workflow/performance-matrix machinery (internal/core): a
// Heuristic maps a core.Workflow onto per-node reservation Timelines using
// the same execution- and data-cost primitives the GrADS scheduler ranks
// with (core.Scheduler's ECost, DCost and memoized TransferTime). It
// implements the HEFT family — HEFT (upward-rank priority with
// earliest-finish-time gap insertion), CPOP (critical path on a processor)
// — a sufferage list variant, and a min-min adapter that reproduces
// core.Scheduler's min-min schedule exactly. Timelines support advance
// reservations: pre-claimed intervals (a metascheduler's EASY backfill
// guarantee, or the already-running tasks of a mid-execution rescheduling
// pass) that every heuristic schedules around and the validity harness
// verifies are preserved.
package listsched

import (
	"fmt"
	"math"

	"grads/internal/core"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// Heuristic names accepted by New.
const (
	HEFT          = "heft"
	CPOP          = "cpop"
	SufferageList = "sufferage-list"
	MinMinAdapter = "min-min"
)

// Names lists the registered heuristics in presentation order.
func Names() []string { return []string{HEFT, CPOP, SufferageList, MinMinAdapter} }

// Heuristic maps the unscheduled components of a Context onto its
// timelines and returns the resulting schedule.
type Heuristic interface {
	Name() string
	Schedule(ctx *Context) (*Result, error)
}

// New returns the named heuristic.
func New(name string) (Heuristic, error) {
	switch name {
	case HEFT:
		return heft{}, nil
	case CPOP:
		return cpop{}, nil
	case SufferageList:
		return sufferage{}, nil
	case MinMinAdapter:
		return minmin{}, nil
	}
	return nil, fmt.Errorf("listsched: unknown heuristic %q (have: %v)", name, Names())
}

// Context is one scheduling problem: a workflow, the resources it may map
// onto with their (possibly pre-reserved) timelines, the cost model, and —
// for rescheduling passes — the components already fixed in place.
type Context struct {
	S         *core.Scheduler  // cost primitives (ECost/DCost/TransferTime)
	W         *core.Workflow   // full workflow; Done marks fixed components
	Resources []*topology.Node // schedulable resources, in priority order
	Timelines []*Timeline      // one per resource, same order

	// Done[i] marks components whose placement is fixed (already executed
	// or running when a rescheduling pass starts); Assign[i] holds their
	// node and times. Heuristics schedule only the rest.
	Done   []bool
	Assign []core.Assignment

	// NotBefore is the earliest instant any newly scheduled slot may start
	// (the rescheduling horizon). Zero for from-scratch scheduling.
	NotBefore float64

	// SlowNode/SlowFactor model a resource degraded from NotBefore on:
	// ExecCost multiplies estimates on SlowNode by SlowFactor (≥ 1).
	SlowNode   *topology.Node
	SlowFactor float64

	// reservations records the advance reservations placed through Reserve,
	// per resource, so the validity harness can verify containment.
	reservations [][]Slot

	// comm model (mean latency + per-byte time over distinct node pairs),
	// computed lazily for the rank functions.
	commLat, commRate float64
	commReady         bool
}

// NewContext builds a from-scratch scheduling context with empty timelines.
func NewContext(s *core.Scheduler, w *core.Workflow, resources []*topology.Node) *Context {
	ctx := &Context{
		S:            s,
		W:            w,
		Resources:    resources,
		Timelines:    make([]*Timeline, len(resources)),
		Done:         make([]bool, w.Len()),
		Assign:       make([]core.Assignment, w.Len()),
		reservations: make([][]Slot, len(resources)),
	}
	for i := range ctx.Timelines {
		ctx.Timelines[i] = NewTimeline()
	}
	return ctx
}

// Reserve places an advance reservation [start, start+dur) on resource ri's
// timeline and records it for containment checking.
func (c *Context) Reserve(ri int, start, dur float64, label string) error {
	if ri < 0 || ri >= len(c.Timelines) {
		return fmt.Errorf("listsched: reserve on unknown resource %d", ri)
	}
	if err := c.Timelines[ri].Reserve(start, dur, label); err != nil {
		return err
	}
	c.reservations[ri] = append(c.reservations[ri],
		Slot{Start: start, End: start + dur, Label: label, Reserved: true})
	return nil
}

// Reservations returns the advance reservations placed on resource ri.
func (c *Context) Reservations(ri int) []Slot { return c.reservations[ri] }

// ExecCost is the execution-time estimate of component ci on r under the
// context's degradation model.
func (c *Context) ExecCost(ci int, r *topology.Node) float64 {
	v := c.S.ECost(c.W.Components[ci], r)
	if c.SlowFactor > 1 && r == c.SlowNode {
		v *= c.SlowFactor
	}
	return v
}

// Comm is the time to move component pred's output from node `from` to node
// `to` (zero on the same node).
func (c *Context) Comm(pred int, from, to *topology.Node) float64 {
	return c.S.TransferTime(from, to, c.W.Components[pred].OutputBytes)
}

// readyBound returns the earliest instant component ci may start on r given
// the finish times (and nodes) of its predecessors: max predecessor finish,
// plus the output-transfer time for cross-node edges when the heuristic
// charges communication as start delay (the HEFT family), plus input
// staging from the workflow origin for entry components, clamped to the
// rescheduling horizon.
func (c *Context) readyBound(ci int, r *topology.Node, finish []float64, nodes []*topology.Node, commInStart bool) float64 {
	ready := c.NotBefore
	deps := c.W.Deps(ci)
	if len(deps) == 0 && commInStart {
		if t := c.S.TransferTime(c.W.Origin, r, c.W.Components[ci].InputBytes); t > ready {
			ready = t
		}
	}
	for _, d := range deps {
		t := finish[d]
		if commInStart && nodes[d] != r {
			t += c.Comm(d, nodes[d], r)
		}
		if t > ready {
			ready = t
		}
	}
	return ready
}

// emitDecision publishes one engine scheduling decision into telemetry.
func (c *Context) emitDecision(heuristic string, makespan float64, scheduled int) {
	if c.S == nil || c.S.Grid == nil || c.S.Grid.Sim == nil {
		return
	}
	tel := c.S.Grid.Sim.Telemetry()
	if tel == nil {
		return
	}
	tel.Counter("listsched", "schedules").Inc()
	tel.Emit(telemetry.Event{
		Type: telemetry.EvSchedDecision, Comp: "listsched", Name: heuristic,
		Args: []telemetry.Arg{
			telemetry.I("components", scheduled),
			telemetry.I("resources", len(c.Resources)),
			telemetry.F("makespan", makespan),
		},
	})
}

// Result is a completed engine schedule: the assignment of every component
// (fixed ones included), the timelines it occupies, and the communication
// semantics the heuristic used (needed to validate precedence).
type Result struct {
	Heuristic   string
	Makespan    float64
	Assignments []core.Assignment // indexed by component
	Timelines   []*Timeline       // aliases the context's timelines

	// CommInStart is true when cross-node transfers delay task starts (the
	// HEFT family) and false when they are folded into slot durations (the
	// min-min adapter, matching core.Scheduler's rank semantics).
	CommInStart bool
}

// Utilization is the busy fraction of the result's resources over its
// horizon: total occupied timeline duration / (resources × horizon), where
// the horizon is the makespan or the last occupied instant, whichever is
// later (an advance reservation may outlive the workflow).
func (r *Result) Utilization() float64 {
	if len(r.Timelines) == 0 {
		return 0
	}
	busy, horizon := 0.0, r.Makespan
	for _, t := range r.Timelines {
		busy += t.Busy()
		if end := t.End(); end > horizon {
			horizon = end
		}
	}
	if horizon <= 0 {
		return 0
	}
	return busy / (float64(len(r.Timelines)) * horizon)
}

// SlotLabel names component ci's timeline slot (assignment slots carry it
// so schedules, executions and rescheduling contexts agree on identity).
func SlotLabel(ci int) string { return fmt.Sprintf("c%d", ci) }

// checkEps is the relative tolerance CheckResult allows on floating-point
// comparisons that re-derive a bound through a different operation order.
const checkEps = 1e-9

// CheckResult is the schedule-validity property harness: it re-derives
// every invariant a feasible reservation-timeline schedule must satisfy
// and returns the first violation.
//
//   - every component is assigned to an eligible resource of the context;
//   - precedence: each start is ≥ every predecessor's finish, plus the
//     cross-node transfer time when the heuristic charges communication as
//     start delay, and ≥ the rescheduling horizon;
//   - slot durations equal the cost model's execution estimate (plus data
//     cost for duration-charged heuristics);
//   - node timelines are sorted and non-overlapping, and every assignment
//     appears as exactly one slot with matching bounds;
//   - advance reservations are contained intact in the final timelines;
//   - the reported makespan equals the maximum finish time.
func CheckResult(ctx *Context, res *Result) error {
	w, n := ctx.W, ctx.W.Len()
	if len(res.Assignments) != n {
		return fmt.Errorf("listsched: %d assignments for %d components", len(res.Assignments), n)
	}
	ri := make(map[*topology.Node]int, len(ctx.Resources))
	for i, r := range ctx.Resources {
		ri[r] = i
	}

	nodes := make([]*topology.Node, n)
	finish := make([]float64, n)
	maxFinish := 0.0
	for i, a := range res.Assignments {
		if a.Node == nil {
			return fmt.Errorf("listsched: component %d unassigned", i)
		}
		if _, ok := ri[a.Node]; !ok {
			return fmt.Errorf("listsched: component %d on unknown resource %s", i, a.Node.Name())
		}
		if !core.Eligible(w.Components[i], a.Node) {
			return fmt.Errorf("listsched: component %d (%s) on ineligible resource %s",
				i, w.Components[i].Name, a.Node.Name())
		}
		if a.Finish < a.Start || math.IsNaN(a.Start) || math.IsInf(a.Finish, 0) {
			return fmt.Errorf("listsched: component %d has bad interval [%v, %v)", i, a.Start, a.Finish)
		}
		nodes[i], finish[i] = a.Node, a.Finish
		if a.Finish > maxFinish {
			maxFinish = a.Finish
		}
	}

	eps := func(v float64) float64 { return checkEps * math.Max(1, math.Abs(v)) }

	for i, a := range res.Assignments {
		if ctx.Done[i] {
			continue // fixed placements predate the horizon by design
		}
		ready := ctx.readyBound(i, a.Node, finish, nodes, res.CommInStart)
		if a.Start+eps(ready) < ready {
			return fmt.Errorf("listsched: component %d starts %v before ready bound %v", i, a.Start, ready)
		}
		dur := a.Finish - a.Start
		want := ctx.ExecCost(i, a.Node)
		if !res.CommInStart {
			want = ctx.S.W1*want + ctx.S.W2*ctx.S.DCost(w, i, a.Node, res.Assignments)
		}
		if math.Abs(dur-want) > eps(want) {
			return fmt.Errorf("listsched: component %d duration %v != cost-model %v", i, dur, want)
		}
	}

	if math.Abs(res.Makespan-maxFinish) > eps(maxFinish) {
		return fmt.Errorf("listsched: makespan %v != max finish %v", res.Makespan, maxFinish)
	}

	for r, tl := range res.Timelines {
		if err := tl.CheckInvariants(); err != nil {
			return err
		}
		// Index the slots: every assignment must own exactly one, and every
		// reservation must be contained unmodified.
		byLabel := make(map[string]Slot, len(tl.Slots()))
		for _, s := range tl.Slots() {
			if _, dup := byLabel[s.Label]; dup {
				return fmt.Errorf("listsched: duplicate slot label %q on %s", s.Label, ctx.Resources[r].Name())
			}
			byLabel[s.Label] = s
		}
		for _, want := range ctx.Reservations(r) {
			got, ok := byLabel[want.Label]
			if !ok || !got.Reserved || got.Start != want.Start || got.End != want.End {
				return fmt.Errorf("listsched: reservation %q [%v, %v) on %s not contained in final timeline",
					want.Label, want.Start, want.End, ctx.Resources[r].Name())
			}
		}
	}
	for i, a := range res.Assignments {
		tl := res.Timelines[ri[a.Node]]
		found := false
		for _, s := range tl.Slots() {
			if s.Label == SlotLabel(i) {
				if s.Reserved && !ctx.Done[i] {
					return fmt.Errorf("listsched: component %d slot marked reserved", i)
				}
				if s.Start != a.Start || s.End != a.Finish {
					return fmt.Errorf("listsched: component %d slot [%v, %v) != assignment [%v, %v)",
						i, s.Start, s.End, a.Start, a.Finish)
				}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("listsched: component %d has no slot on %s", i, a.Node.Name())
		}
	}
	return nil
}

// Perturbation degrades one node by Factor (≥ 1) from instant At on — the
// mid-execution event the rescheduling policies of the dagzoo experiment
// react to. A zero Perturbation (nil Node) leaves execution unchanged.
type Perturbation struct {
	Node   *topology.Node
	At     float64
	Factor float64
}

// slowedDur is the wall time of work that takes base seconds at full speed
// when started at start on a node degraded by factor from at on.
func (p Perturbation) slowedDur(r *topology.Node, start, base float64) float64 {
	if p.Node == nil || r != p.Node || p.Factor <= 1 {
		return base
	}
	switch {
	case start >= p.At: // entirely degraded
		return base * p.Factor
	case start+base <= p.At: // finished before the degradation
		return base
	default: // spans the onset: remaining work slows down
		done := p.At - start
		return done + (base-done)*p.Factor
	}
}

// ExecuteStatic replays a planned schedule under a perturbation: tasks
// dispatch in planned start order, each waiting for its predecessors (plus
// transfers, under the result's communication semantics), for its node's
// previously dispatched work, and for any advance reservation it would
// collide with after slipping; work on the perturbed node stretches by the
// slowdown. It returns the executed assignments and makespan. With a zero
// perturbation the execution reproduces the plan exactly.
func ExecuteStatic(ctx *Context, res *Result, pert Perturbation) ([]core.Assignment, float64, error) {
	n := ctx.W.Len()
	ri := make(map[*topology.Node]int, len(ctx.Resources))
	for i, r := range ctx.Resources {
		ri[r] = i
	}
	// Scratch timelines seeded with the advance reservations only: slipped
	// tasks must still fit around them.
	scratch := make([]*Timeline, len(ctx.Resources))
	nodeFree := make([]float64, len(ctx.Resources))
	for i := range scratch {
		scratch[i] = NewTimeline()
		for _, s := range ctx.Reservations(i) {
			if err := scratch[i].Reserve(s.Start, s.End-s.Start, s.Label); err != nil {
				return nil, 0, err
			}
		}
	}

	// Planned start order with index tie-break is topological: predecessors
	// never start after successors and always have smaller indices.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			sa, sb := res.Assignments[a].Start, res.Assignments[b].Start
			if sa < sb || (sa == sb && a < b) {
				break
			}
			order[j-1], order[j] = b, a
		}
	}

	actual := make([]core.Assignment, n)
	nodes := make([]*topology.Node, n)
	finish := make([]float64, n)
	makespan := 0.0
	for i := range nodes {
		nodes[i] = res.Assignments[i].Node
	}
	for _, ci := range order {
		plan := res.Assignments[ci]
		k := ri[plan.Node]
		base := plan.Finish - plan.Start
		cand := plan.Start
		if r := ctx.readyBound(ci, plan.Node, finish, nodes, res.CommInStart); r > cand {
			cand = r
		}
		if nodeFree[k] > cand {
			cand = nodeFree[k]
		}
		// Fit around reservations; slipping right may stretch the duration
		// (more of the work lands after the perturbation), so iterate to a
		// fixed point.
		start := cand
		dur := pert.slowedDur(plan.Node, start, base)
		for iter := 0; iter < len(scratch[k].Slots())+2; iter++ {
			fit := scratch[k].EarliestFit(start, dur)
			d2 := pert.slowedDur(plan.Node, fit, base)
			if fit == start && d2 == dur {
				break
			}
			start, dur = fit, d2
		}
		if err := scratch[k].Insert(start, dur, SlotLabel(ci)); err != nil {
			return nil, 0, err
		}
		actual[ci] = core.Assignment{Node: plan.Node, Start: start, Finish: start + dur}
		finish[ci] = actual[ci].Finish
		if nodeFree[k] < finish[ci] {
			nodeFree[k] = finish[ci]
		}
		if finish[ci] > makespan {
			makespan = finish[ci]
		}
	}
	return actual, makespan, nil
}
