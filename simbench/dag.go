package main

import (
	"fmt"
	"math/rand"

	"grads/internal/apps"
	"grads/internal/core"
	"grads/internal/experiments"
	"grads/internal/listsched"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// dagPlan plans workflows without executing them: random layered workflows
// through core.Scheduler's min-min, max-min and sufferage, and DAG-zoo
// classes through HEFT, CPOP and sufferage-list, every plan on the
// MacroGrid with a fresh model cache per workflow. Core, perfmodel and
// listsched do the work; the kernel and the network stay idle.
type dagPlan struct {
	env    *experiments.Env
	random []plannedDAG // planned by core.Scheduler
	zoo    []plannedDAG // planned by listsched
}

type plannedDAG struct {
	label string
	wf    *core.Workflow
	cp    float64 // critical-path lower bound on any plan's makespan
}

// dagZoo is the zoo suite: low and high communication-to-computation
// ratios, fan-out and layered shapes, and the EMAN refinement DAG.
var dagZoo = []string{
	"chain:n=24,ccr=0.5",
	"fanout:width=32,ccr=0.25",
	"fanout:width=32,ccr=4",
	"diamond:width=8,layers=4,ccr=1",
	"layered:layers=5,width=10,fanin=3,ccr=4",
	"eman:n=400,width=12",
}

const (
	dagRandomCount  = 8 // random workflows per rep
	dagZooCopies    = 2 // seeded builds of each zoo class per rep
	dagRandomLayers = 5
	dagRandomWidth  = 10
	dagRandomFanin  = 3
)

var zooHeuristics = []string{listsched.HEFT, listsched.CPOP, listsched.SufferageList}

func (w *dagPlan) setup(seed int64, tiny bool, sp *spans) error {
	nRandom, copies, zoo := dagRandomCount, dagZooCopies, dagZoo
	if tiny {
		nRandom, copies, zoo = 1, 1, dagZoo[:2]
	}
	w.env = experiments.NewEnv(seed, topology.MacroGrid, "dagplan", 0)
	nodes := w.env.Grid.Nodes()
	rng := rand.New(rand.NewSource(seed))
	w.random = w.random[:0]
	for i := 0; i < nRandom; i++ {
		id := sp.begin("apps.RandomWorkflow")
		wf, err := apps.RandomWorkflow(rng, dagRandomLayers, dagRandomWidth, dagRandomFanin)
		sp.end(id)
		if err != nil {
			return err
		}
		w.random = append(w.random, plannedDAG{fmt.Sprintf("random-%d", i), wf, wf.CriticalPathTime(nodes)})
	}
	w.zoo = w.zoo[:0]
	for _, spec := range zoo {
		zs, err := listsched.ParseZoo(spec)
		if err != nil {
			return err
		}
		for c := 0; c < copies; c++ {
			id := sp.begin("listsched.ZooSpec.Build")
			wf, err := zs[0].Build(rng)
			sp.end(id)
			if err != nil {
				return err
			}
			w.zoo = append(w.zoo, plannedDAG{fmt.Sprintf("%s#%d", spec, c), wf, wf.CriticalPathTime(nodes)})
		}
	}
	return nil
}

func (w *dagPlan) run(tel *telemetry.Telemetry, sp *spans) *outcome {
	w.env.Sim.SetTelemetry(tel)
	defer w.env.Sim.SetTelemetry(nil)
	nodes := w.env.Grid.Nodes()
	o := &outcome{}
	d := newDigester()
	plan := func(dag plannedDAG, name string, ctx *listsched.Context, res *listsched.Result, err error) {
		o.attempted++
		if err == nil {
			id := sp.begin("listsched.CheckResult")
			err = checkPlan(ctx, res, dag.cp)
			sp.end(id)
		}
		if err != nil {
			o.fail(1, "%s %s: %v", dag.label, name, err)
			return
		}
		o.tasks += dag.wf.Len()
		o.achieved += res.Makespan
		o.bound += dag.cp
		o.makespan += res.Makespan
		for _, a := range res.Assignments {
			o.lat = append(o.lat, a.Finish)
			d.f(a.Start, a.Finish)
			d.s(a.Node.Name())
		}
	}
	for _, dag := range w.random {
		s := core.NewScheduler(w.env.Grid, nil)
		for _, h := range core.Heuristics {
			id := sp.begin("core.ScheduleWith")
			sched, err := s.ScheduleWith(h, dag.wf, nodes)
			sp.end(id)
			o.count("core.schedules", 1)
			ctx := listsched.NewContext(s, dag.wf, nodes)
			var res *listsched.Result
			if err == nil {
				res, err = scheduleResult(ctx, sched)
			}
			plan(dag, h, ctx, res, err)
		}
		o.cacheStats(s.Cache)
	}
	for _, dag := range w.zoo {
		s := core.NewScheduler(w.env.Grid, nil)
		for _, name := range zooHeuristics {
			ctx := listsched.NewContext(s, dag.wf, nodes)
			var res *listsched.Result
			h, err := listsched.New(name)
			if err == nil {
				id := sp.begin("listsched.Schedule")
				res, err = h.Schedule(ctx)
				sp.end(id)
			}
			if err == nil {
				o.count("listsched.tasks", float64(dag.wf.Len()))
			}
			plan(dag, name, ctx, res, err)
		}
		o.cacheStats(s.Cache)
	}
	// Planning fires no kernel events; one heuristic planning one workflow
	// is this workload's event.
	o.events = uint64(o.attempted)
	if n := float64(o.attempted - o.failed); n > 0 {
		o.makespan /= n
	}
	o.digest = d.sum()
	return o
}
