// Quickstart: build a two-site Grid from a DML description, start the
// weather service, schedule a four-component workflow with the GrADS
// workflow scheduler, and execute the schedule on the emulator.
package main

import (
	"fmt"
	"log"

	"grads/internal/core"
	"grads/internal/experiments"
	"grads/internal/nws"
	"grads/internal/perfmodel"
	"grads/internal/simcore"
	"grads/internal/topology"
)

const gridDML = `
# A small heterogeneous grid: a fast cluster and a slow one.
site Fast bw=1Gb lat=100us
site Slow bw=100Mb lat=100us
cluster fast count=4 site=Fast arch=ia32 mhz=1700 fpc=0.8 mem=1024
cluster slow count=8 site=Slow arch=ia32 mhz=450  fpc=0.4 mem=256
wan Fast Slow bw=10Mb lat=20ms
`

func main() {
	sim := simcore.New(42)
	grid, err := topology.ParseDML(sim, gridDML)
	if err != nil {
		log.Fatal(err)
	}
	weather := nws.Start(sim, grid, 10)

	// A diamond workflow: prepare -> (analyze-a, analyze-b) -> combine.
	// Component models are least-squares fits of small-run profiles, the
	// way GrADS builds them (§3.2 of the paper).
	model := func(name string, flopsPerUnit float64) *perfmodel.ComponentModel {
		var samples []perfmodel.Sample
		for n := 1.0; n <= 5; n++ {
			samples = append(samples, perfmodel.Sample{N: n, Flops: flopsPerUnit * n})
		}
		m, err := perfmodel.FitComponent(name, samples, 1)
		if err != nil {
			log.Fatal(err)
		}
		return m
	}
	wf := core.NewWorkflow()
	prep := wf.Add(&core.Component{
		Name: "prepare", Model: model("prepare", 2e9), ProblemSize: 1, OutputBytes: 50e6,
	})
	a := wf.Add(&core.Component{
		Name: "analyze-a", Model: model("analyze-a", 40e9), ProblemSize: 1, OutputBytes: 5e6,
	}, prep)
	b := wf.Add(&core.Component{
		Name: "analyze-b", Model: model("analyze-b", 30e9), ProblemSize: 1, OutputBytes: 5e6,
	}, prep)
	wf.Add(&core.Component{
		Name: "combine", Model: model("combine", 1e9), ProblemSize: 1,
	}, a, b)

	sched, err := core.NewScheduler(grid, weather).Schedule(wf, grid.Nodes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduler picked %q with predicted makespan %.1f s\n", sched.Heuristic, sched.Makespan)
	for i, asg := range sched.Assignments {
		fmt.Printf("  %-10s -> %-7s [%6.1f, %6.1f]\n",
			wf.Components[i].Name, asg.Node.Name(), asg.Start, asg.Finish)
	}

	// Execute the schedule on the emulator and compare.
	weather.Stop()
	env := &experiments.Env{Sim: sim, Grid: grid}
	measured, err := experiments.ExecuteSchedule(env, wf, sched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed on the emulator in %.1f s of virtual time\n", measured)
}
