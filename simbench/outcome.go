package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"grads/internal/core"
	"grads/internal/listsched"
	"grads/internal/perfmodel"
	"grads/internal/topology"
)

// outcome is what one rep of a workload produced. Everything except
// problems is a deterministic function of the seed.
type outcome struct {
	attempted int // units of work: jobs, requests or plans
	failed    int // units that failed an output check
	problems  []string

	events uint64 // simcore events fired (dag-plan: task placements)
	tasks  int    // units of work handled, for tasks_per_s

	// Modelled outcomes, in virtual seconds. lat holds one latency per unit
	// of work (job or request turnaround, planned task finish). achieved
	// and bound sum, over jobs, requests or plans, the time each took and
	// a lower bound on it; their ratio is the slr.
	lat             []float64
	achieved, bound float64
	makespan        float64

	counts map[string]float64 // per-layer counts by metric name
	digest uint64             // hash of every modelled result
}

// maxProblems bounds the problems a rep keeps; past it they are only counted.
const maxProblems = 8

// fail marks n units as failed for the reason given.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) count(name string, v float64) {
	if o.counts == nil {
		o.counts = make(map[string]float64)
	}
	o.counts[name] += v
}

// digester hashes modelled results bit-exactly.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) u(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d *digester) f(vs ...float64) {
	for _, v := range vs {
		d.u(math.Float64bits(v))
	}
}

func (d *digester) i(vs ...int) {
	for _, v := range vs {
		d.f(float64(v))
	}
}

func (d *digester) s(s string) {
	d.h.Write([]byte(s))
	d.h.Write([]byte{0})
}

func (d *digester) sum() uint64 { return d.h.Sum64() }

// fingerprint hashes the modelled results together with every per-layer
// count, so that a count which moves between reps fails the run too.
func (o *outcome) fingerprint() uint64 {
	names := make([]string, 0, len(o.counts))
	for k := range o.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	d := newDigester()
	d.u(o.digest)
	for _, k := range names {
		d.s(k)
		d.f(o.counts[k])
	}
	return d.sum()
}

// cacheStats adds a scheduler's model-cache counters to the outcome.
func (o *outcome) cacheStats(c *perfmodel.Cache) {
	if c == nil {
		return
	}
	hits, misses, _ := c.Stats()
	o.count("perfmodel.hits", float64(hits))
	o.count("perfmodel.misses", float64(misses))
}

// scheduleResult rebuilds a core.Scheduler plan as a listsched result over
// fresh timelines, so the validity harness can check it: a core plan charges
// data movement inside each slot, as the min-min adapter does. An error
// means two of the plan's tasks overlap on one node.
func scheduleResult(ctx *listsched.Context, sched *core.Schedule) (*listsched.Result, error) {
	ri := make(map[*topology.Node]int, len(ctx.Resources))
	for i, r := range ctx.Resources {
		ri[r] = i
	}
	for i, a := range sched.Assignments {
		k, ok := ri[a.Node]
		if !ok {
			return nil, fmt.Errorf("component %d on a node outside the plan's resources", i)
		}
		if err := ctx.Timelines[k].Insert(a.Start, a.Finish-a.Start, listsched.SlotLabel(i)); err != nil {
			return nil, err
		}
	}
	return &listsched.Result{
		Heuristic:   sched.Heuristic,
		Makespan:    sched.Makespan,
		Assignments: sched.Assignments,
		Timelines:   ctx.Timelines,
	}, nil
}

// checkPlan is the output check every plan passes: the validity harness,
// and a makespan no shorter than the workflow's critical-path bound.
func checkPlan(ctx *listsched.Context, res *listsched.Result, cpBound float64) error {
	if err := listsched.CheckResult(ctx, res); err != nil {
		return err
	}
	if math.IsNaN(res.Makespan) || res.Makespan < cpBound*(1-1e-9) {
		return fmt.Errorf("makespan %v below the critical-path bound %v", res.Makespan, cpBound)
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
