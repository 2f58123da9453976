package grads

// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact; see DESIGN.md §3 for the experiment index),
// plus micro-benchmarks of the substrates they are built on. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks measure the wall cost of regenerating the
// artifact on the emulator; the reported virtual-time results themselves
// are in EXPERIMENTS.md.

import (
	"io"
	"math/rand"
	"testing"

	"grads/internal/apps"
	"grads/internal/chaossoak"
	"grads/internal/core"
	"grads/internal/experiments"
	"grads/internal/linalg"
	"grads/internal/mpi"
	"grads/internal/netsim"
	"grads/internal/nws"
	"grads/internal/perfmodel"
	"grads/internal/rescheduler"
	"grads/internal/simcore"
	"grads/internal/swap"
	"grads/internal/telemetry"
	"grads/internal/topology"
	"grads/internal/vgrid"
)

// --- Figure 3 (§4.1.2): QR stop/restart with phase breakdown ---

func BenchmarkFig3QRStopRestart(b *testing.B) {
	cfg := experiments.DefaultFig3Config()
	cfg.Sizes = []int{8000} // the crossover size; the CLI sweeps all sizes
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig3(experiments.Options{}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !rows[0].MigrationHelps {
			b.Fatal("N=8000 should benefit from migration")
		}
	}
}

// --- Figure 4 (§4.2.2): N-body under process swapping on the MicroGrid ---

func BenchmarkFig4NBodySwap(b *testing.B) {
	cfg := experiments.DefaultFig4Config()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig4(experiments.Options{}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Swaps != 3 {
			b.Fatalf("swaps = %d", r.Swaps)
		}
	}
}

// --- §3.3: EMAN workflow scheduling on the heterogeneous MacroGrid ---

func BenchmarkEMANWorkflowSchedule(b *testing.B) {
	cfg := experiments.DefaultEMANConfig()
	wf, err := apps.EMANWorkflow(cfg.Particles, cfg.Width)
	if err != nil {
		b.Fatal(err)
	}
	expanded := wf.Expand()
	grid := topology.MacroGrid(simcore.New(1))
	s := core.NewScheduler(grid, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(expanded, grid.Nodes()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEMANScheduleExecution(b *testing.B) {
	cfg := experiments.DefaultEMANConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunEMAN(experiments.Options{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §3.1 ablation: mapping heuristics over the performance matrix ---

func BenchmarkSchedulerHeuristics(b *testing.B) {
	grid := topology.MacroGrid(simcore.New(1))
	wf, err := apps.RandomWorkflow(rand.New(rand.NewSource(3)), 5, 10, 3)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewScheduler(grid, nil)
	for _, h := range core.Heuristics {
		b.Run(h, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.ScheduleWith(h, wf, grid.Nodes()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §4.2 ablation: swapping policies ---

func BenchmarkSwapPolicies(b *testing.B) {
	cfg := experiments.DefaultFig4Config()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSwapPolicies(experiments.Options{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §4.1.1: opportunistic rescheduling ---

func BenchmarkOpportunistic(b *testing.B) {
	cfg := experiments.DefaultOpportunisticConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOpportunistic(experiments.Options{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkSimcoreEventThroughput(b *testing.B) {
	sim := simcore.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(float64(i%1000), func() {})
		if i%1024 == 1023 {
			sim.Run()
		}
	}
	sim.Run()
}

// BenchmarkSimcoreEventThroughputTraced is the same loop with a telemetry
// hub attached (no sinks), measuring the enabled-path cost of the kernel
// counters relative to the nil-guard fast path above.
func BenchmarkSimcoreEventThroughputTraced(b *testing.B) {
	sim := simcore.New(1)
	sim.SetTelemetry(telemetry.New())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(float64(i%1000), func() {})
		if i%1024 == 1023 {
			sim.Run()
		}
	}
	sim.Run()
}

func BenchmarkSimcoreProcessSwitch(b *testing.B) {
	sim := simcore.New(1)
	iters := b.N
	sim.Spawn("w", func(p *simcore.Proc) {
		for i := 0; i < iters; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	sim.Run()
}

func BenchmarkCPUProcessorSharing(b *testing.B) {
	sim := simcore.New(1)
	grid := topology.NewGrid(sim)
	grid.AddSite("A", 1e8, 0)
	node := grid.AddNode(topology.NodeSpec{Name: "n", Site: "A", MHz: 1000, FlopsPerCycle: 1})
	iters := b.N
	for w := 0; w < 8; w++ {
		sim.Spawn("w", func(p *simcore.Proc) {
			for i := 0; i < iters/8+1; i++ {
				node.CPU.Compute(p, 1e6)
			}
		})
	}
	b.ResetTimer()
	sim.Run()
}

func BenchmarkNetMaxMinReallocate(b *testing.B) {
	sim := simcore.New(1)
	net := netsim.New(sim)
	links := make([]*netsim.Link, 8)
	for i := range links {
		links[i] = net.AddLink(string(rune('a'+i)), 1e7, 1e-4)
	}
	iters := b.N
	for f := 0; f < 16; f++ {
		route := []*netsim.Link{links[f%8], links[(f+3)%8]}
		sim.Spawn("tx", func(p *simcore.Proc) {
			for i := 0; i < iters/16+1; i++ {
				net.Transfer(p, route, 1e5)
			}
		})
	}
	b.ResetTimer()
	sim.Run()
}

func BenchmarkMPIAllreduce(b *testing.B) {
	sim := simcore.New(1)
	grid := topology.NewGrid(sim)
	grid.AddSite("A", 1e9, 1e-5)
	var nodes []*topology.Node
	for i := 0; i < 8; i++ {
		nodes = append(nodes, grid.AddNode(topology.NodeSpec{
			Name: string(rune('a' + i)), Site: "A", MHz: 1000, FlopsPerCycle: 1,
		}))
	}
	world := mpi.NewWorld(sim, grid, "bench", nodes)
	comm := world.WorldComm()
	iters := b.N
	world.Start(func(ctx *mpi.Ctx) {
		for i := 0; i < iters; i++ {
			if _, err := comm.Allreduce(ctx, 1e3, nil, nil); err != nil {
				return
			}
		}
	})
	b.ResetTimer()
	sim.Run()
}

func BenchmarkForecasterEnsemble(b *testing.B) {
	e := nws.NewEnsemble()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < b.N; i++ {
		e.Update(rng.Float64())
		_ = e.Forecast()
	}
}

func BenchmarkPolyfitCubic(b *testing.B) {
	xs := make([]float64, 20)
	ys := make([]float64, 20)
	for i := range xs {
		x := float64(i + 1)
		xs[i] = x
		ys[i] = 1 + 2*x + 0.5*x*x + 0.01*x*x*x
	}
	for i := 0; i < b.N; i++ {
		if _, err := perfmodel.Polyfit(xs, ys, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMRDPredict(b *testing.B) {
	ns := []float64{100, 200, 300, 400, 500}
	hists := make([]perfmodel.Histogram, len(ns))
	for i, n := range ns {
		hists[i] = perfmodel.Histogram{
			{Dist: 64, Count: 100 * n},
			{Dist: 2 * n, Count: 10 * n},
			{Dist: n * n / 8, Count: n},
		}
	}
	m, err := perfmodel.FitMRD(ns, hists, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Misses(float64(1000+i%1000), 16384)
	}
}

func BenchmarkHouseholderQR64(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := linalg.Random(rng, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.QR(a)
	}
}

func BenchmarkBlockCyclicRedistribute(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := linalg.Random(rng, 64, 256)
	locals := linalg.Distribute(a, 8, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.Redistribute(locals, 8, 12)
	}
}

func BenchmarkRescheduleDecision(b *testing.B) {
	sim := simcore.New(1)
	grid := topology.QRTestbed(sim)
	r := rescheduler.New(grid, nil)
	grid.Node("utk1").CPU.SetExternalLoad(1)
	candidates := rescheduler.SiteCandidates(grid.Nodes())
	app := &benchEstimator{}
	utk := grid.Site("UTK").Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Evaluate(app, utk, candidates)
	}
}

// benchEstimator is a minimal rescheduler.Estimator for decision benches.
type benchEstimator struct{}

func (benchEstimator) RemainingTime(nodes []*topology.Node, avail func(*topology.Node) float64) float64 {
	slowest := 1e30
	for _, n := range nodes {
		if r := n.Spec.Flops() * avail(n); r < slowest {
			slowest = r
		}
	}
	return 1e12 / (slowest * float64(len(nodes)))
}
func (benchEstimator) CheckpointBytes() float64 { return 5e8 }
func (benchEstimator) RestartOverhead() float64 { return 30 }

func BenchmarkSwapPolicyDecide(b *testing.B) {
	active := []swap.Candidate{{Phys: 0, VRank: 0, Speed: 2e8}, {Phys: 1, VRank: 1, Speed: 7e7}, {Phys: 2, VRank: 2, Speed: 2e8}}
	inactive := []swap.Candidate{{Phys: 3, VRank: -1, Speed: 1.8e8}, {Phys: 4, VRank: -1, Speed: 1.8e8}, {Phys: 5, VRank: -1, Speed: 1.8e8}}
	site := map[int]string{0: "A", 1: "A", 2: "A", 3: "B", 4: "B", 5: "B"}
	p := swap.GangPolicy{Gain: 1.2, SiteOf: func(phys int) string { return site[phys] }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Decide(active, inactive)
	}
}

func BenchmarkEconomyMarkets(b *testing.B) {
	cfg := experiments.DefaultEconomyConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunEconomy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVGridFind(b *testing.B) {
	grid := topology.MacroGrid(simcore.New(1))
	f := vgrid.NewFinder(grid, nil, nil)
	spec := vgrid.Spec{Name: "bench", Kind: vgrid.TightBag, MinNodes: 30, MaxLatency: 0.015}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Find(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelQRRealData(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := linalg.Random(rng, 48, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := simcore.New(1)
		g := topology.NewGrid(sim)
		g.AddSite("A", 1e8, 1e-4)
		var nodes []*topology.Node
		for j := 0; j < 4; j++ {
			nodes = append(nodes, g.AddNode(topology.NodeSpec{
				Name: "n" + string(rune('a'+j)), Site: "A", MHz: 1000, FlopsPerCycle: 1,
			}))
		}
		if _, err := apps.RunParallelQR(sim, g, nodes, a, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultRecovery(b *testing.B) {
	cfg := experiments.DefaultFaultConfig()
	cfg.Intervals = []int{20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFault(experiments.Options{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Allocation-free kernel tentpole: end-to-end trace cost ---

// BenchmarkE2E runs the chaos study's QR scenario (a full seeded
// checkpoint/restart simulation) with JSONL tracing attached, using the
// batched append-style encoder; BenchmarkE2EReference is the identical run
// through the json.Marshal reference sink the encoder replaced. The pair is
// gated by cmd/benchguard (BENCH_e2e.json): the whole-simulation win is
// bounded by the share of time spent encoding, so the floor is modest —
// the per-event wins are gated in BENCH_kernel.json.
func BenchmarkE2E(b *testing.B)          { benchmarkE2E(b, telemetry.NewJSONL) }
func BenchmarkE2EReference(b *testing.B) { benchmarkE2E(b, telemetry.NewJSONLReference) }

// BenchmarkE2ENoFaultBare / Guarded run the identical fault-free soak
// workload with the resilience guard layer (circuit breakers + retry
// budgets) absent vs. installed. The benchguard gate requires Guarded to
// stay within ~2% of Bare (min-speedup 0.98): on a healthy grid the
// guards must be free, because every service call pays their bookkeeping.
func BenchmarkE2ENoFaultBare(b *testing.B)    { benchmarkE2ENoFault(b, false) }
func BenchmarkE2ENoFaultGuarded(b *testing.B) { benchmarkE2ENoFault(b, true) }

func benchmarkE2ENoFault(b *testing.B, guards bool) {
	cfg := chaossoak.SmokeConfig(1)
	cfg.NoFaults = true
	cfg.Guards = guards
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := chaossoak.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Drained || len(r.Violations) != 0 || r.LostJobs != 0 {
			b.Fatalf("no-fault soak not clean: drained=%v violations=%d lost=%d",
				r.Drained, len(r.Violations), r.LostJobs)
		}
	}
}

func benchmarkE2E(b *testing.B, newSink func(w io.Writer) *telemetry.JSONL) {
	cfg := experiments.DefaultChaosConfig()
	cfg.N, cfg.Particles, cfg.Width = 2000, 100, 6
	cfg.MTBFs = []float64{1500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel := telemetry.New()
		sink := newSink(io.Discard)
		tel.AddSink(sink)
		if _, err := experiments.RunChaos(experiments.Options{Telemetry: tel}, cfg); err != nil {
			b.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
