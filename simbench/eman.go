package main

import (
	"fmt"
	"math"
	"math/rand"

	"grads/internal/apps"
	"grads/internal/core"
	"grads/internal/experiments"
	"grads/internal/listsched"
	"grads/internal/netsim"
	"grads/internal/simcore"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// emanRun schedules expanded EMAN refinement workflows best-of-3 on the
// MacroGrid with the model cache, then executes each plan on the emulator
// under many seeded load conditions. The three heuristics re-rank the same
// (component, node) pairs, so the cache sees high reuse; the executions,
// where CPU shares and WAN flows re-split as competing load comes and goes,
// exercise cpusim and netsim.
type emanRun struct {
	seed int64
	runs []emanInstance
}

type emanInstance struct {
	wf    *core.Workflow // expanded
	cp    float64
	loads [][]loadStep // one trace per execution condition
}

// loadStep is one change of competing load during an execution: external
// CPU load on the node of one of the plan's components, background traffic
// on one WAN link, and one competing transfer from that node to another.
type loadStep struct {
	at      float64 // fraction of the predicted makespan
	comp    int     // the component whose node is loaded
	cpuLoad float64 // competing CPU-bound processes
	wan     int     // index into the grid's WAN links
	wanUse  float64 // share of that link's capacity taken by background traffic
	peer    int     // index into the grid's nodes: the competing transfer's sink
	bytes   float64 // size of the competing transfer
}

const (
	emanInstances  = 3   // workflows per rep
	emanWidth      = 16  // parallel particle-processing width
	emanConditions = 200 // load conditions each plan is executed under
	emanLoadSteps  = 32  // load changes per condition
)

func (w *emanRun) setup(seed int64, tiny bool, sp *spans) error {
	n, width, conds := emanInstances, emanWidth, emanConditions
	if tiny {
		n, width, conds = 1, 12, 3
	}
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	grid := topology.MacroGrid(simcore.New(seed))
	nodes := grid.Nodes()
	nWAN := len(wanLinks(grid))
	w.runs = w.runs[:0]
	for i := 0; i < n; i++ {
		// Dataset sizes within 10 of the §3.3 demonstration's 400 particles.
		particles := float64(390 + rng.Intn(21))
		id := sp.begin("apps.EMANWorkflow")
		wf, err := apps.EMANWorkflow(particles, width)
		if err == nil {
			wf = wf.Expand()
		}
		sp.end(id)
		if err != nil {
			return err
		}
		in := emanInstance{wf: wf, cp: wf.CriticalPathTime(nodes)}
		for c := 0; c < conds; c++ {
			steps := make([]loadStep, emanLoadSteps)
			for k := range steps {
				steps[k] = loadStep{
					at:      rng.Float64(),
					comp:    rng.Intn(wf.Len()),
					cpuLoad: float64(rng.Intn(4)) / 2,
					wan:     rng.Intn(nWAN),
					wanUse:  0.9 * rng.Float64(),
					peer:    rng.Intn(len(nodes)),
					bytes:   (2 + 18*rng.Float64()) * 1e6,
				}
			}
			in.loads = append(in.loads, steps)
		}
		w.runs = append(w.runs, in)
	}
	return nil
}

// wanLinks lists the grid's inter-site links in site order.
func wanLinks(g *topology.Grid) []*netsim.Link {
	sites := g.Sites()
	var links []*netsim.Link
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			if l := g.WAN(sites[i].Name, sites[j].Name); l != nil {
				links = append(links, l)
			}
		}
	}
	return links
}

func (w *emanRun) run(tel *telemetry.Telemetry, sp *spans) *outcome {
	o := &outcome{}
	d := newDigester()
	executions := 0
	for _, in := range w.runs {
		o.attempted++
		env := experiments.NewEnv(w.seed, topology.MacroGrid, "eman", 0)
		env.Sim.SetTelemetry(tel)
		nodes := env.Grid.Nodes()
		s := core.NewScheduler(env.Grid, nil)
		id := sp.begin("core.Schedule")
		sched, err := s.Schedule(in.wf, nodes)
		sp.end(id)
		o.count("core.schedules", float64(len(core.Heuristics)))
		if err != nil {
			o.fail(1, "eman schedule: %v", err)
			continue
		}
		ctx := listsched.NewContext(s, in.wf, nodes)
		id = sp.begin("listsched.CheckResult")
		res, err := scheduleResult(ctx, sched)
		if err == nil {
			err = checkPlan(ctx, res, in.cp)
		}
		sp.end(id)
		if err != nil {
			o.fail(1, "eman plan: %v", err)
			continue
		}
		o.cacheStats(s.Cache)
		for _, a := range sched.Assignments {
			o.lat = append(o.lat, a.Finish)
			d.f(a.Start, a.Finish)
			d.s(a.Node.Name())
		}

		for c, steps := range in.loads {
			o.attempted++
			if c > 0 {
				env = experiments.NewEnv(w.seed, topology.MacroGrid, "eman", 0)
				env.Sim.SetTelemetry(tel)
			}
			plan := rebind(sched, env.Grid)
			applyLoad(env, plan, steps)
			id = sp.begin("experiments.ExecuteSchedule")
			executed, err := experiments.ExecuteSchedule(env, in.wf, plan)
			sp.end(id)
			if err == nil {
				err = checkExecuted(executed, sched.Makespan)
			}
			if err != nil {
				o.fail(1, "eman execution %d: %v", c, err)
				continue
			}
			executions++
			o.tasks += in.wf.Len()
			o.events += env.Sim.EventsFired()
			o.count("simcore.events", float64(env.Sim.EventsFired()))
			passes, flows := env.Grid.Net.SolverStats()
			o.count("netsim.solver_passes", float64(passes))
			o.count("netsim.flows_solved", float64(flows))
			o.makespan += executed
			o.achieved += executed
			o.bound += in.cp
			d.f(executed)
		}
	}
	if executions > 0 {
		o.makespan /= float64(executions)
	}
	o.digest = d.sum()
	return o
}

// checkExecuted is the output check on one execution: a finite makespan
// no shorter than the plan predicted, since competing load only slows a
// plan down.
func checkExecuted(executed, predicted float64) error {
	if math.IsNaN(executed) || math.IsInf(executed, 0) || executed < predicted*(1-1e-9) {
		return fmt.Errorf("executed makespan %v against predicted %v", executed, predicted)
	}
	return nil
}

// rebind maps a plan made on one grid onto the same-named nodes of another,
// so that it can run on a fresh emulator.
func rebind(sched *core.Schedule, g *topology.Grid) *core.Schedule {
	plan := *sched
	plan.Assignments = append([]core.Assignment(nil), sched.Assignments...)
	for i := range plan.Assignments {
		plan.Assignments[i].Node = g.Node(plan.Assignments[i].Node.Name())
	}
	return &plan
}

// applyLoad schedules a load trace on env, timed against the plan's
// predicted makespan.
func applyLoad(env *experiments.Env, plan *core.Schedule, steps []loadStep) {
	links := wanLinks(env.Grid)
	nodes := env.Grid.Nodes()
	for _, st := range steps {
		st := st
		node := plan.Assignments[st.comp].Node
		link := links[st.wan]
		route := env.Grid.Route(node, nodes[st.peer])
		env.Sim.At(st.at*plan.Makespan, func() {
			node.CPU.SetExternalLoad(st.cpuLoad)
			env.Grid.Net.SetBackground(link, st.wanUse*link.Capacity())
		})
		env.Sim.SpawnAt(st.at*plan.Makespan, "cross-traffic", func(p *simcore.Proc) {
			// Nothing fails on this grid; a failed transfer would only
			// end the competing load early.
			_, _ = env.Grid.Net.Transfer(p, route, st.bytes)
		})
	}
}
