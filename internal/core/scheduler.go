package core

import (
	"fmt"
	"math"
	"math/rand"

	"grads/internal/nws"
	"grads/internal/perfmodel"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// Heuristic names accepted by ScheduleWith.
const (
	MinMin    = "min-min"
	MaxMin    = "max-min"
	Sufferage = "sufferage"
)

// Heuristics lists the three mapping heuristics the paper applies.
var Heuristics = []string{MinMin, MaxMin, Sufferage}

// Assignment records where and when one component runs.
type Assignment struct {
	Node   *topology.Node
	Start  float64
	Finish float64
}

// Schedule is a complete mapping of workflow components onto resources.
type Schedule struct {
	Heuristic   string
	Makespan    float64
	Assignments []Assignment // indexed by component
}

// Scheduler is the GrADS workflow scheduler. W1 and W2 weight execution
// cost and data-movement cost in the rank function
// rank(c, r) = W1*ecost(c, r) + W2*dcost(c, r).
type Scheduler struct {
	W1, W2 float64

	// Weather optionally supplies CPU-availability and network forecasts;
	// without it nodes are assumed idle and transfers are estimated from
	// instantaneous network state.
	Weather *nws.Service

	Grid *topology.Grid

	// Cache memoizes model evaluations across the search: the three
	// heuristics re-rank the same (component, node) pairs against identical
	// availabilities, and repeated searches at unchanged network state
	// re-estimate the same transfers. Every input of a cached evaluation is
	// part of its key, so cached and uncached searches produce bit-identical
	// schedules. A nil Cache disables memoization.
	Cache *perfmodel.Cache
}

// NewScheduler creates a scheduler with the paper's defaults (equal
// weights) and an evaluation cache.
func NewScheduler(grid *topology.Grid, weather *nws.Service) *Scheduler {
	return &Scheduler{W1: 1, W2: 1, Weather: weather, Grid: grid, Cache: perfmodel.NewCache(0)}
}

// avail returns the forecast availability of a node.
func (s *Scheduler) avail(n *topology.Node) float64 {
	if s.Weather != nil {
		return s.Weather.CPUForecast(n.Name())
	}
	return 1
}

// transferTime estimates moving bytes between two nodes.
func (s *Scheduler) transferTime(a, b *topology.Node, bytes float64) float64 {
	if a == nil || b == nil || a == b || bytes <= 0 {
		return 0
	}
	if s.Weather != nil {
		// Forecast-backed estimates change with NWS state we cannot version,
		// so they are not memoized.
		return s.Weather.TransferEstimate(a, b, bytes)
	}
	if s.Cache != nil && s.Grid != nil && s.Grid.Net != nil {
		// The network's state version covers every input of the estimate
		// (flow set, background, degradations, latency factors), so equal
		// keys guarantee equal results.
		var sig perfmodel.Sig
		sig.S(a.Name()).S(b.Name()).F(bytes).I(s.Grid.Net.StateVersion())
		key := sig.String()
		if v, ok := s.Cache.Lookup("xfer", key); ok {
			return v
		}
		v := s.Grid.TransferTimeEstimate(a, b, bytes)
		s.Cache.Store("xfer", key, v)
		return v
	}
	return s.Grid.TransferTimeEstimate(a, b, bytes)
}

// ECost exposes the execution-cost half of the rank function — the expected
// execution time of c on r under forecast load, memoized like Rank — for
// engines built over the same cost model (internal/listsched).
func (s *Scheduler) ECost(c *Component, r *topology.Node) float64 { return s.ecost(c, r) }

// DCost exposes the data-movement half of the rank function: the cost of
// staging component ci's inputs to r given the partial schedule.
func (s *Scheduler) DCost(w *Workflow, ci int, r *topology.Node, assigned []Assignment) float64 {
	return s.dcostFrom(w, w.Components[ci], ci, r, assigned)
}

// TransferTime exposes the memoized point-to-point transfer estimate the
// data costs are built from.
func (s *Scheduler) TransferTime(a, b *topology.Node, bytes float64) float64 {
	return s.transferTime(a, b, bytes)
}

// Eligible reports whether a resource meets a component's minimum
// requirements (§3.1: failing resources get rank infinity).
func Eligible(c *Component, r *topology.Node) bool { return eligible(c, r) }

// eligible reports whether a resource meets a component's minimum
// requirements (§3.1: failing resources get rank infinity).
func eligible(c *Component, r *topology.Node) bool {
	if c.ReqArch != "" && r.Spec.Arch != c.ReqArch {
		return false
	}
	if r.Spec.MemMB < c.MinMemMB {
		return false
	}
	return true
}

// ecost is the expected execution time of c on r under forecast load.
func (s *Scheduler) ecost(c *Component, r *topology.Node) float64 {
	if c.Model == nil {
		return 0
	}
	av := s.avail(r)
	if s.Cache == nil {
		return c.Model.TimeLoaded(c.ProblemSize, r, av)
	}
	// TimeLoaded is pure in (model, size, node spec, availability); the node
	// spec is static, so this key covers every input.
	var sig perfmodel.Sig
	sig.S(c.Model.Name).S(c.Name).F(c.ProblemSize).S(r.Name()).F(av)
	key := sig.String()
	if v, ok := s.Cache.Lookup("ecost", key); ok {
		return v
	}
	v := c.Model.TimeLoaded(c.ProblemSize, r, av)
	s.Cache.Store("ecost", key, v)
	return v
}

// dcostFrom estimates the data-movement cost of running c on r given the
// nodes its inputs live on (predecessor assignments, or the workflow origin
// for entry components).
func (s *Scheduler) dcostFrom(w *Workflow, c *Component, ci int, r *topology.Node, assigned []Assignment) float64 {
	cost := 0.0
	if len(w.Deps(ci)) == 0 {
		cost += s.transferTime(w.Origin, r, c.InputBytes)
	}
	for _, d := range w.Deps(ci) {
		cost += s.transferTime(assigned[d].Node, r, w.Components[d].OutputBytes)
	}
	return cost
}

// Rank computes the paper's rank value for a (component, resource) pair in
// the context of the partial schedule. Infinity marks ineligibility.
func (s *Scheduler) Rank(w *Workflow, ci int, r *topology.Node, assigned []Assignment) float64 {
	c := w.Components[ci]
	if !eligible(c, r) {
		return math.Inf(1)
	}
	return s.W1*s.ecost(c, r) + s.W2*s.dcostFrom(w, c, ci, r, assigned)
}

// tel returns the telemetry hub of the grid's simulation, or nil.
func (s *Scheduler) tel() *telemetry.Telemetry {
	if s.Grid == nil || s.Grid.Sim == nil {
		return nil
	}
	return s.Grid.Sim.Telemetry()
}

// emitDecision publishes one schedule decision into telemetry.
func (s *Scheduler) emitDecision(sched *Schedule, w *Workflow, resources int, chosen bool) {
	tel := s.tel()
	if tel == nil {
		return
	}
	tel.Counter("core", "schedules").Inc()
	tel.Histogram("core", "makespan_seconds").Observe(sched.Makespan)
	tel.Emit(telemetry.Event{
		Type: telemetry.EvSchedDecision, Comp: "core", Name: sched.Heuristic,
		Args: []telemetry.Arg{
			telemetry.I("components", w.Len()),
			telemetry.I("resources", resources),
			telemetry.F("makespan", sched.Makespan),
			telemetry.B("chosen", chosen),
		},
	})
}

// Schedule maps the workflow with all three heuristics and returns the
// schedule with the minimum makespan (§3.1).
func (s *Scheduler) Schedule(w *Workflow, resources []*topology.Node) (*Schedule, error) {
	var best *Schedule
	for _, h := range Heuristics {
		sched, err := s.ScheduleWith(h, w, resources)
		if err != nil {
			return nil, err
		}
		if best == nil || sched.Makespan < best.Makespan {
			best = sched
		}
	}
	s.emitDecision(best, w, len(resources), true)
	return best, nil
}

// ScheduleWith maps the workflow using one named heuristic.
func (s *Scheduler) ScheduleWith(heuristic string, w *Workflow, resources []*topology.Node) (*Schedule, error) {
	if len(resources) == 0 {
		return nil, fmt.Errorf("core: no resources")
	}
	switch heuristic {
	case MinMin, MaxMin, Sufferage:
	default:
		return nil, fmt.Errorf("core: unknown heuristic %q", heuristic)
	}

	n := w.Len()
	assigned := make([]Assignment, n)
	done := make([]bool, n)
	nodeFree := make(map[*topology.Node]float64, len(resources))
	remaining := n

	for remaining > 0 {
		ready := w.readySet(done)
		if len(ready) == 0 {
			return nil, fmt.Errorf("core: workflow has a dependency cycle or unsatisfiable component")
		}
		// Completion-time matrix over ready components.
		choices := make([]choice, 0, len(ready))
		for _, ci := range ready {
			best := choice{comp: ci, finish: math.Inf(1), second: math.Inf(1)}
			for _, r := range resources {
				rank := s.Rank(w, ci, r, assigned)
				if math.IsInf(rank, 1) {
					continue
				}
				start := nodeFree[r]
				for _, d := range w.Deps(ci) {
					if assigned[d].Finish > start {
						start = assigned[d].Finish
					}
				}
				finish := start + rank
				switch {
				case finish < best.finish:
					best.second = best.finish
					best.node, best.start, best.finish = r, start, finish
				case finish < best.second:
					best.second = finish
				}
			}
			if best.node == nil {
				return nil, fmt.Errorf("core: component %q has no eligible resource", w.Components[ci].Name)
			}
			choices = append(choices, best)
		}

		// Pick per heuristic.
		pick := choices[0]
		for _, ch := range choices[1:] {
			switch heuristic {
			case MinMin:
				if ch.finish < pick.finish {
					pick = ch
				}
			case MaxMin:
				if ch.finish > pick.finish {
					pick = ch
				}
			case Sufferage:
				if ch.sufferage() > pick.sufferage() {
					pick = ch
				}
			}
		}

		assigned[pick.comp] = Assignment{Node: pick.node, Start: pick.start, Finish: pick.finish}
		done[pick.comp] = true
		nodeFree[pick.node] = pick.finish
		remaining--
	}

	makespan := 0.0
	for _, a := range assigned {
		if a.Finish > makespan {
			makespan = a.Finish
		}
	}
	sched := &Schedule{Heuristic: heuristic, Makespan: makespan, Assignments: assigned}
	s.emitDecision(sched, w, len(resources), false)
	return sched, nil
}

// choice is one ready component's best placement in the current round.
type choice struct {
	comp   int
	node   *topology.Node
	start  float64
	finish float64
	second float64 // second-best finish time
}

// sufferage is how much the component suffers if denied its best resource.
func (ch choice) sufferage() float64 {
	if math.IsInf(ch.second, 1) {
		return math.Inf(1)
	}
	return ch.second - ch.finish
}

// readySet returns unscheduled components whose predecessors are all
// scheduled.
func (w *Workflow) readySet(done []bool) []int {
	var ready []int
	for i := range w.Components {
		if done[i] {
			continue
		}
		ok := true
		for _, d := range w.deps[i] {
			if !done[d] {
				ok = false
				break
			}
		}
		if ok {
			ready = append(ready, i)
		}
	}
	return ready
}

// EvaluateFixed computes the start/finish times and makespan of a FIXED
// placement (one node per component) under this scheduler's cost model.
// It is used to compare placements produced under different rank weights on
// an equal footing.
func (s *Scheduler) EvaluateFixed(w *Workflow, placement []*topology.Node) (*Schedule, error) {
	if len(placement) != w.Len() {
		return nil, fmt.Errorf("core: placement length %d != %d components", len(placement), w.Len())
	}
	assigned := make([]Assignment, w.Len())
	done := make([]bool, w.Len())
	nodeFree := make(map[*topology.Node]float64)
	remaining := w.Len()
	for remaining > 0 {
		ready := w.readySet(done)
		if len(ready) == 0 {
			return nil, fmt.Errorf("core: workflow has a dependency cycle")
		}
		for _, ci := range ready {
			r := placement[ci]
			if r == nil {
				return nil, fmt.Errorf("core: component %d has no placement", ci)
			}
			start := nodeFree[r]
			for _, d := range w.Deps(ci) {
				if assigned[d].Finish > start {
					start = assigned[d].Finish
				}
			}
			finish := start + s.Rank(w, ci, r, assigned)
			assigned[ci] = Assignment{Node: r, Start: start, Finish: finish}
			done[ci] = true
			nodeFree[r] = finish
			remaining--
		}
	}
	makespan := 0.0
	for _, a := range assigned {
		if a.Finish > makespan {
			makespan = a.Finish
		}
	}
	return &Schedule{Heuristic: "fixed", Makespan: makespan, Assignments: assigned}, nil
}

// Baseline strategies from the heuristic comparison the paper cites
// (Braun et al., JPDC 2001), accepted by ScheduleBaseline.
const (
	// OLB (opportunistic load balancing) assigns each ready component, in
	// index order, to the node that becomes available earliest, ignoring
	// execution time.
	OLB = "olb"
	// MCT assigns each ready component, in index order, to the node
	// minimizing that component's completion time (no min-min selection
	// across the ready set).
	MCT = "mct"
)

// ScheduleBaseline maps the workflow with one of the simple baseline
// strategies (OLB, MCT) the GrADS heuristics are compared against.
func (s *Scheduler) ScheduleBaseline(strategy string, w *Workflow, resources []*topology.Node) (*Schedule, error) {
	if strategy != OLB && strategy != MCT {
		return nil, fmt.Errorf("core: unknown baseline %q", strategy)
	}
	if len(resources) == 0 {
		return nil, fmt.Errorf("core: no resources")
	}
	n := w.Len()
	assigned := make([]Assignment, n)
	done := make([]bool, n)
	nodeFree := make(map[*topology.Node]float64, len(resources))
	remaining := n
	for remaining > 0 {
		ready := w.readySet(done)
		if len(ready) == 0 {
			return nil, fmt.Errorf("core: workflow has a dependency cycle")
		}
		for _, ci := range ready {
			var pick *topology.Node
			pickStart, pickFinish := 0.0, math.Inf(1)
			for _, r := range resources {
				rank := s.Rank(w, ci, r, assigned)
				if math.IsInf(rank, 1) {
					continue
				}
				start := nodeFree[r]
				for _, d := range w.Deps(ci) {
					if assigned[d].Finish > start {
						start = assigned[d].Finish
					}
				}
				var better bool
				switch strategy {
				case OLB:
					better = pick == nil || nodeFree[r] < nodeFree[pick]
				case MCT:
					better = start+rank < pickFinish
				}
				if better {
					pick, pickStart, pickFinish = r, start, start+rank
				}
			}
			if pick == nil {
				return nil, fmt.Errorf("core: component %q has no eligible resource", w.Components[ci].Name)
			}
			assigned[ci] = Assignment{Node: pick, Start: pickStart, Finish: pickFinish}
			done[ci] = true
			nodeFree[pick] = pickFinish
			remaining--
		}
	}
	makespan := 0.0
	for _, a := range assigned {
		if a.Finish > makespan {
			makespan = a.Finish
		}
	}
	return &Schedule{Heuristic: strategy, Makespan: makespan, Assignments: assigned}, nil
}

// ScheduleRandom maps every component to a uniformly random eligible
// resource (the baseline the heuristics are compared against).
func (s *Scheduler) ScheduleRandom(rng *rand.Rand, w *Workflow, resources []*topology.Node) (*Schedule, error) {
	n := w.Len()
	assigned := make([]Assignment, n)
	done := make([]bool, n)
	nodeFree := make(map[*topology.Node]float64, len(resources))
	remaining := n
	for remaining > 0 {
		ready := w.readySet(done)
		if len(ready) == 0 {
			return nil, fmt.Errorf("core: workflow has a dependency cycle")
		}
		for _, ci := range ready {
			var elig []*topology.Node
			for _, r := range resources {
				if eligible(w.Components[ci], r) {
					elig = append(elig, r)
				}
			}
			if len(elig) == 0 {
				return nil, fmt.Errorf("core: component %q has no eligible resource", w.Components[ci].Name)
			}
			r := elig[rng.Intn(len(elig))]
			start := nodeFree[r]
			for _, d := range w.Deps(ci) {
				if assigned[d].Finish > start {
					start = assigned[d].Finish
				}
			}
			finish := start + s.Rank(w, ci, r, assigned)
			assigned[ci] = Assignment{Node: r, Start: start, Finish: finish}
			done[ci] = true
			nodeFree[r] = finish
			remaining--
		}
	}
	makespan := 0.0
	for _, a := range assigned {
		if a.Finish > makespan {
			makespan = a.Finish
		}
	}
	return &Schedule{Heuristic: "random", Makespan: makespan, Assignments: assigned}, nil
}
