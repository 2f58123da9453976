// Package grads is a from-scratch Go reproduction of the system described
// in "New Grid Scheduling and Rescheduling Methods in the GrADS Project"
// (IPPS/IPDPS 2004): the GrADS execution framework — workflow scheduling
// with performance-model-driven ranks and the min-min/max-min/sufferage
// heuristics, performance-contract monitoring, stop/migrate/restart
// rescheduling via SRS checkpointing, and MPI process-swapping — together
// with every substrate the paper's evaluation depends on, implemented over
// a deterministic discrete-event Grid emulator (our MicroGrid equivalent).
//
// The implementation lives under internal/; this package provides the
// top-level entry points used by cmd/gradsim and the benchmarks:
//
//	rep, err := grads.RunExperiment(grads.Options{}, "fig3") // regenerate Figure 3
//	fmt.Print(rep.Text)
//
// See DESIGN.md for the full system inventory and the per-experiment index,
// and EXPERIMENTS.md for paper-versus-measured results.
package grads

import (
	"fmt"
	"sort"
	"strings"

	"grads/internal/apps"
	"grads/internal/chaossoak"
	"grads/internal/core"
	"grads/internal/experiments"
	"grads/internal/faultinject"
	"grads/internal/metasched"
)

// Version identifies the reproduction release.
const Version = "1.0.0"

// Options is the run configuration every entry point takes explicitly:
// a seed override, a telemetry hub, the reference network solver and the
// shard-kernel count (the gradsim -seed, -trace/-trace-jsonl/-metrics,
// -netsim-reference and -shards flags). The zero value is the published
// configuration. Nothing is held between calls, so concurrent runs with
// different Options do not interfere.
type Options = experiments.Options

// Table is the tabular form of a report.
type Table = experiments.Table

// Report is one experiment run: the formatted text and, for the tabular
// experiments, the table behind it in raw values (gradsim -csv prints
// Table.CSV()).
type Report struct {
	Text  string
	Table *Table
}

// experiment is one registry entry: a one-line title (for -list and usage),
// the driver, and whether its Report carries a Table. skipAll excludes an
// entry from RunAll — used by the wall-clock scale experiment, whose timings
// would break the byte-identical `-exp all` determinism contract.
type experiment struct {
	title   string
	run     func(Options) (Report, error)
	csv     bool
	skipAll bool
}

// Info names one runnable experiment for listings.
type Info struct {
	Name, Title string
	HasCSV      bool
}

// Experiments enumerates the runnable experiment names, each regenerating
// one table or figure of the paper (see DESIGN.md §3 for the mapping).
func Experiments() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Describe enumerates every experiment with its one-line title, sorted by
// name. cmd/gradsim derives its -list output and usage text from this, so
// the CLI cannot drift from the registry.
func Describe() []Info {
	out := make([]Info, 0, len(registry))
	for _, name := range Experiments() {
		e := registry[name]
		out = append(out, Info{Name: name, Title: e.title, HasCSV: e.csv})
	}
	return out
}

// entry builds a registry entry from a driver and its renderers: the report
// text is header + text(res), and when table is non-nil the entry has a CSV
// form, table(res), from the same run.
func entry[T any](title string, run func(Options) (T, error), header string, text func(T) string, table func(T) *Table) experiment {
	return experiment{title: title, csv: table != nil, run: func(o Options) (Report, error) {
		res, err := run(o)
		if err != nil {
			return Report{}, err
		}
		rep := Report{Text: header + text(res)}
		if table != nil {
			rep.Table = table(res)
		}
		return rep, nil
	}}
}

// wallClock marks an entry whose output depends on host timing, so RunAll
// leaves it out.
func (e experiment) wallClock() experiment {
	e.skipAll = true
	return e
}

// verbatim is the text renderer of drivers that format their own report.
func verbatim(s string) string { return s }

// runFig3 drives both Figure 3 entries.
func runFig3(o Options) ([]experiments.Fig3Row, error) {
	return experiments.RunFig3(o, experiments.DefaultFig3Config())
}

// registry maps experiment names to their titles and drivers.
var registry = map[string]experiment{
	"fig3": entry("Figure 3 — QR stop/restart phase breakdown per matrix size", runFig3,
		"Figure 3 — QR stop/restart, phase breakdown per matrix size\n"+
			"(left bar = no rescheduling, right bar = rescheduling)\n\n",
		experiments.FormatFig3, nil),
	"fig3-decisions": entry("§4.1.2 — rescheduler decisions vs ground truth per matrix size", runFig3,
		"§4.1.2 — rescheduler decisions vs ground truth per matrix size\n\n",
		experiments.FormatFig3Decisions, experiments.Fig3DecisionsTable),
	"fig4": entry("Figure 4 — N-body progress under process swapping (MicroGrid)",
		func(o Options) (*experiments.Fig4Result, error) {
			return experiments.RunFig4(o, experiments.DefaultFig4Config())
		},
		"Figure 4 — N-body progress under process swapping (MicroGrid)\n\n",
		func(r *experiments.Fig4Result) string { return experiments.FormatFig4(r, 20) },
		experiments.Fig4Table),
	"eman": entry("§3.3 — EMAN refinement workflow on the heterogeneous MacroGrid",
		func(o Options) ([]experiments.EMANResult, error) {
			cfg := experiments.DefaultEMANConfig()
			cfg.Seed = o.SeedOr(cfg.Seed)
			return experiments.RunEMAN(o, cfg)
		},
		"§3.3 — EMAN refinement workflow on the heterogeneous MacroGrid\n\n",
		experiments.FormatEMAN, nil),
	"eman-dag": entry("Figure 2 — EMAN refinement workflow structure",
		func(Options) (*core.Workflow, error) {
			cfg := experiments.DefaultEMANConfig()
			return apps.EMANWorkflow(cfg.Particles, cfg.Width)
		},
		fmt.Sprintf("Figure 2 — EMAN refinement workflow (expanded %d-way)\n\n", experiments.DefaultEMANConfig().Width),
		func(wf *core.Workflow) string { return experiments.FormatEMANDag(wf.Expand()) }, nil),
	"heuristics": {
		title: "§3.1 ablation — mapping heuristics on random workflows",
		run: func(o Options) (Report, error) {
			cfg := experiments.DefaultHeurConfig()
			cfg.Seed = o.SeedOr(cfg.Seed)
			res, err := experiments.RunHeuristics(o, cfg)
			if err != nil {
				return Report{}, err
			}
			w, err := experiments.RunRankWeights(o, cfg, nil)
			if err != nil {
				return Report{}, err
			}
			return Report{Text: "§3.1 ablation — mapping heuristics on random workflows\n\n" +
				experiments.FormatHeuristics(res) + "\nrank-weight sweep (w2 = data-cost weight):\n\n" +
				experiments.FormatRankWeights(w)}, nil
		},
	},
	"dagzoo": entry("extension — DAG-zoo leaderboard: list heuristics (HEFT/CPOP/sufferage-list/min-min) x rescheduling policy",
		func(o Options) ([]experiments.DagZooClass, error) {
			cfg := experiments.DefaultDagZooConfig()
			cfg.Seed = o.SeedOr(cfg.Seed)
			return experiments.RunDagZoo(o, cfg)
		},
		"extension — DAG-zoo leaderboard: list-scheduling heuristics x\n"+
			"rescheduling policy on the MacroGrid (every schedule passes the\n"+
			"listsched validity harness; static = ride out a mid-run slowdown,\n"+
			"remap = re-plan unstarted tasks around it)\n\n",
		experiments.FormatDagZoo, experiments.DagZooTable),
	"dagzoo-smoke": entry("CI — compressed multi-seed dagzoo leaderboard (fails on any validity violation)",
		experiments.RunDagZooSmoke, "", verbatim, nil),
	"swap-policies": entry("§4.2 ablation — swapping policies on the Figure 4 scenario",
		func(o Options) ([]experiments.SwapPolicyResult, error) {
			return experiments.RunSwapPolicies(o, experiments.DefaultFig4Config())
		},
		"§4.2 ablation — swapping policies on the Figure 4 scenario\n\n",
		experiments.FormatSwapPolicies, nil),
	"opportunistic": entry("§4.1.1 — opportunistic rescheduling onto freed resources",
		func(o Options) (*experiments.OpportunisticResult, error) {
			return experiments.RunOpportunistic(o, experiments.DefaultOpportunisticConfig())
		},
		"§4.1.1 — opportunistic rescheduling onto freed resources\n\n",
		experiments.FormatOpportunistic, nil),
	"fault": entry("extension — fault tolerance: crash recovery from SRS checkpoints",
		func(o Options) ([]experiments.FaultResult, error) {
			return experiments.RunFault(o, experiments.DefaultFaultConfig())
		},
		"extension (paper conclusion) — fault tolerance: node crash +\n"+
			"recovery from periodic SRS checkpoints\n\n",
		experiments.FormatFault, experiments.FaultTable),
	"chaos": entry("extension — chaos study: completion and recovery vs node MTBF",
		func(o Options) ([]experiments.ChaosResult, error) {
			cfg := experiments.DefaultChaosConfig()
			cfg.Seed = o.SeedOr(cfg.Seed)
			return experiments.RunChaos(o, cfg)
		},
		"extension — chaos study: QR and EMAN under seeded node crashes,\n"+
			"completion time and recovery count vs node MTBF\n\n",
		experiments.FormatChaos, experiments.ChaosTable),
	"soak": {
		title: "extension — chaos soak: invariant harness under a randomized mixed fault schedule",
		csv:   true,
		run: func(o Options) (Report, error) {
			cfg := experiments.DefaultSoakConfig()
			cfg.Seed = o.SeedOr(cfg.Seed)
			r, err := experiments.RunSoak(o, cfg)
			if err != nil {
				return Report{}, err
			}
			text := "extension — chaos soak: metascheduler + recovery control plane under\n" +
				"randomized crashes, storms, partitions, outages and checkpoint corruption\n\n" +
				experiments.FormatSoak(r)
			if fail := experiments.SoakFailure([]*chaossoak.Result{r}); fail != "" {
				return Report{}, fmt.Errorf("soak failed: %s\n\n%s", fail, text)
			}
			return Report{Text: text, Table: experiments.SoakTable(r)}, nil
		},
	},
	"soak-smoke": {
		title: "CI — compressed multi-seed chaos soak (fails on any invariant violation)",
		run: func(o Options) (Report, error) {
			results, err := experiments.RunSoakSmoke(o)
			if err != nil {
				return Report{}, err
			}
			var b strings.Builder
			b.WriteString("CI — compressed chaos soak, one run per seed\n")
			for _, r := range results {
				b.WriteString("\n")
				b.WriteString(experiments.FormatSoak(r))
			}
			if fail := experiments.SoakFailure(results); fail != "" {
				return Report{}, fmt.Errorf("soak smoke failed: %s\n\n%s", fail, b.String())
			}
			return Report{Text: b.String()}, nil
		},
	},
	"validation": entry("§1/§4.2 — MicroGrid-vs-MacroGrid cross-validation of the swap scenario",
		func(o Options) (*experiments.ValidationResult, error) {
			return experiments.RunValidation(o, experiments.DefaultFig4Config())
		},
		"§1/§4.2 — MicroGrid-vs-MacroGrid cross-validation of the swap scenario\n\n",
		experiments.FormatValidation, nil),
	"weather": entry("ablation — NWS forecasts vs mid-spike samples for migration decisions",
		func(o Options) ([]experiments.WeatherResult, error) {
			cfg := experiments.DefaultWeatherConfig()
			cfg.Seed = o.SeedOr(cfg.Seed)
			return experiments.RunWeather(o, cfg)
		},
		"ablation — why migration decisions use NWS forecasts: bursty WAN\n"+
			"cross traffic, decisions sampled mid-spike vs a time-averaged oracle\n\n",
		experiments.FormatWeather, nil),
	"economy": entry("extension — Grid economies: commodities market vs auctions",
		func(o Options) ([]experiments.EconomyResult, error) {
			cfg := experiments.DefaultEconomyConfig()
			cfg.Seed = o.SeedOr(cfg.Seed)
			return experiments.RunEconomy(cfg)
		},
		"extension (paper conclusion, cites G-commerce [24]) — Grid economies:\n"+
			"commodities market vs auctions under fluctuating demand\n\n",
		experiments.FormatEconomy, nil),
	"scale": entry("extension — sharded-kernel scaling curve on the 10k-node synthetic grid (wall-clock; excluded from 'all')",
		func(o Options) ([]experiments.ScaleVariant, error) { return experiments.RunScaleCurve(o.SeedOr(1)) },
		"extension — sharded multi-site kernel: scaling curve on the 10k-node\n"+
			"synthetic grid (single kernel vs conservatively synchronized shards)\n\n",
		experiments.FormatScale, nil).wallClock(),
	"scale-smoke": entry("CI — shard-equivalence smoke: seeded chaos/contention/soak traces under -shards N",
		experiments.RunScaleSmoke,
		"CI — shard-equivalence smoke: every line below (and the replayed\n"+
			"-trace-jsonl stream) is byte-identical for any -shards N\n\n",
		verbatim, nil),
	"serve": entry("extension — serving: front-door request stream over the broker fleet, rate x routing-policy sweep",
		func(o Options) ([]experiments.ServeResult, error) {
			cfg := experiments.DefaultServeConfig()
			cfg.Seed = o.SeedOr(cfg.Seed)
			return experiments.RunServe(o, cfg)
		},
		"extension — serving: an open-loop request stream through the front\n"+
			"door (QoS classes int/batch/bulk) onto a lopsided 8/4/2-node broker\n"+
			"fleet, swept over arrival rate x routing policy\n\n",
		experiments.FormatServe, experiments.ServeClassTable),
	"serve-smoke": entry("CI — compressed multi-seed serving cell (fails on any conservation violation)",
		experiments.RunServeSmoke, "", verbatim, nil),
	"contention": entry("extension — metascheduler: contention-aware multi-application stream",
		func(o Options) ([]experiments.ContentionResult, error) {
			cfg := experiments.DefaultContentionConfig()
			cfg.Seed = o.SeedOr(cfg.Seed)
			return experiments.RunContention(o, cfg)
		},
		"extension — metascheduler: a contended multi-application job stream\n"+
			"(QR + task farms) under admission control, leases and preemptive\n"+
			"rescheduling, swept over arrival rate x queue policy\n\n",
		experiments.FormatContention, experiments.ContentionTable),
}

// RunFaultSpec runs the QR workload under an explicit fault schedule (the
// gradsim -faults flag; see faultinject.ParseSpec for the grammar) and
// returns a report with the executed timeline and the recovery summary.
func RunFaultSpec(o Options, spec string) (string, error) {
	events, err := faultinject.ParseSpec(spec)
	if err != nil {
		return "", err
	}
	cfg := experiments.DefaultChaosConfig()
	cfg.Seed = o.SeedOr(cfg.Seed)
	r, timeline, err := experiments.RunChaosSpec(o, cfg, events)
	if err != nil {
		return "", err
	}
	return "fault injection — QR workload under explicit schedule\n\n" +
		"schedule:\n" + timeline + "\n" +
		experiments.FormatChaos([]experiments.ChaosResult{*r}), nil
}

// RunJobStream pushes an explicit submission stream (the gradsim -jobs
// flag; see metasched.ParseStream for the grammar) through the
// metascheduler broker on the QR testbed and returns the per-job outcome
// table.
func RunJobStream(o Options, stream string) (string, error) {
	entries, err := metasched.ParseStream(stream)
	if err != nil {
		return "", err
	}
	cfg := experiments.DefaultJobStreamConfig(entries)
	cfg.Seed = o.SeedOr(cfg.Seed)
	recs, err := experiments.RunJobStream(o, cfg)
	if err != nil {
		return "", err
	}
	return "job stream — metascheduler broker on the QR testbed\n\n" +
		"stream: " + metasched.FormatStream(entries) + "\n\n" +
		experiments.JobStreamTable(recs).String(), nil
}

// RunZoo schedules an explicit DAG-zoo spec (the gradsim -zoo flag; see
// listsched.ParseZoo for the grammar) with the named list-scheduling
// heuristic (the -heuristic flag) on the MacroGrid and returns the per-DAG
// makespan/SLR/utilization report.
func RunZoo(o Options, spec, heuristic string) (string, error) {
	return experiments.RunZoo(o, spec, heuristic)
}

// RunArrivals realizes an explicit serving workload (the gradsim -arrivals
// flag; see frontdoor.ParseArrivals for the grammar) through the front door
// on the standard fleet, routed by the named policy (the -route flag), and
// returns the outcome report.
func RunArrivals(o Options, spec, route string) (string, error) {
	return experiments.RunArrivals(o, spec, route)
}

// RunExperiment regenerates one experiment by name.
func RunExperiment(o Options, name string) (Report, error) {
	e, ok := registry[name]
	if !ok {
		return Report{}, fmt.Errorf("grads: unknown experiment %q (have: %s)",
			name, strings.Join(Experiments(), ", "))
	}
	return e.run(o)
}

// RunAll regenerates every experiment except the wall-clock ones (skipAll),
// concatenating the reports' text. Its output is part of the determinism
// contract: same seeds, same bytes.
func RunAll(o Options) (string, error) {
	var b strings.Builder
	for _, name := range Experiments() {
		if registry[name].skipAll {
			continue
		}
		rep, err := RunExperiment(o, name)
		if err != nil {
			return b.String(), fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(&b, "==== %s ====\n\n%s\n", name, rep.Text)
	}
	return b.String(), nil
}
