// Command gradsim regenerates the paper's tables and figures on the
// emulated Grid.
//
// Usage:
//
//	gradsim -exp fig3            # Figure 3 phase breakdown
//	gradsim -exp fig3-decisions  # §4.1.2 rescheduler decision table
//	gradsim -exp fig4            # Figure 4 N-body progress trace
//	gradsim -exp eman            # §3.3 EMAN workflow scheduling
//	gradsim -exp eman-dag        # Figure 2 workflow structure
//	gradsim -exp heuristics      # §3.1 heuristic ablation
//	gradsim -exp swap-policies   # §4.2 swapping-policy ablation
//	gradsim -exp opportunistic   # §4.1.1 opportunistic rescheduling
//	gradsim -exp contention      # metascheduler contention sweep
//	gradsim -exp all             # everything
//
// Run `gradsim -list` for the full registry-derived list with titles;
// `-seed N` overrides the RNG seed of seeded experiments.
//
// Sharded emulation (see the README "Sharded emulation" section):
//
//	gradsim -exp scale               # 10k-node scaling curve (wall-clock)
//	gradsim -exp scale-smoke -shards 4
//	                                 # shard-equivalence smoke; stdout and
//	                                 # -trace-jsonl are byte-identical for
//	                                 # any -shards N
//
// Observability (see the README "Observability" section):
//
//	gradsim -exp fig4 -trace out.json        # Chrome trace_event JSON for
//	                                         # chrome://tracing / Perfetto
//	gradsim -exp fig4 -trace-jsonl out.jsonl # typed-event JSONL stream
//	                                         # (byte-identical across runs)
//	gradsim -exp fig4 -metrics               # metric summary after the run
//
// Fault injection (see the README "Fault injection" section):
//
//	gradsim -faults 'crash@100-400:utk1;outage@10-40:nws'
//	                                         # run QR under an explicit fault
//	                                         # schedule; combine with -trace-jsonl
//	                                         # to capture the fault timeline
//
// List scheduling (see the README "List-scheduling engine" section):
//
//	gradsim -exp dagzoo                      # heuristic x rescheduling-policy
//	                                         # leaderboard over the DAG zoo
//	gradsim -zoo 'fanout:width=24,ccr=4' -heuristic heft
//	                                         # schedule an explicit zoo spec
//	                                         # with one heuristic
//
// Serving (see the README "Front door / serving" section):
//
//	gradsim -exp serve                       # arrival-rate x routing-policy sweep
//	gradsim -arrivals 'poisson@0-600:rate=0.2' -route ucb
//	                                         # explicit request workload through
//	                                         # the front door
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"grads"
	"grads/internal/faultinject"
	"grads/internal/frontdoor"
	"grads/internal/listsched"
	"grads/internal/metasched"
	"grads/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the report to stdout and
// diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gradsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run ('all' or one of: "+
		strings.Join(grads.Experiments(), ", ")+")")
	list := fs.Bool("list", false, "list available experiments and exit")
	seed := fs.Int64("seed", 0, "override the RNG seed of seeded experiments (0 keeps each experiment's default)")
	csv := fs.Bool("csv", false, "emit CSV instead of a formatted table (tabular experiments only)")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON to this file (open in chrome://tracing or Perfetto)")
	jsonlOut := fs.String("trace-jsonl", "", "stream typed telemetry events to this file as JSON lines")
	metrics := fs.Bool("metrics", false, "print the telemetry metric summary after the run")
	faults := fs.String("faults", "", "run the QR workload under this fault schedule "+
		"(events 'kind@start[-end]:target[:value]' joined by ';', e.g. 'crash@100-400:utk1;outage@10-40:nws')")
	netRef := fs.Bool("netsim-reference", false, "use the reference (global) network solver instead of the incremental one (traces are byte-identical either way)")
	shards := fs.Int("shards", 1, "shard kernels for the shard-equivalence smoke (-exp scale-smoke, also run by -exp all); 1 is the single-kernel oracle, any N is trace-identical")
	jobs := fs.String("jobs", "", "run an explicit metascheduler submission stream "+
		"(entries 'kind@submit:key=value,...' joined by ';', e.g. 'qr@0:n=3000,w=8,min=4,bid=40;farm@25:tasks=24,w=4,bid=3')")
	arrivals := fs.String("arrivals", "", "serve an explicit request workload through the front door "+
		"(phases 'kind@start-end:param,...' joined by ';', e.g. 'poisson@0-600:rate=0.2;flash@0-600:rate=0,peak=0.5,at=300,hold=60,mix=int:1')")
	route := fs.String("route", "ucb", "front-door routing policy for -arrivals (one of: rr, least, wrand, ucb, eps)")
	zoo := fs.String("zoo", "", "schedule an explicit DAG-zoo spec with the -heuristic list scheduler "+
		"(entries 'class[:key=value,...]' joined by ';', e.g. 'chain:n=16,ccr=0.5;fanout:width=24,ccr=4;eman')")
	heuristic := fs.String("heuristic", "heft", "list-scheduling heuristic for -zoo (one of: heft, cpop, sufferage-list, min-min)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		infos := grads.Describe()
		width := 0
		for _, info := range infos {
			if len(info.Name) > width {
				width = len(info.Name)
			}
		}
		for _, info := range infos {
			csvMark := ""
			if info.HasCSV {
				csvMark = " [csv]"
			}
			fmt.Fprintf(stdout, "%-*s  %s%s\n", width, info.Name, info.Title, csvMark)
		}
		return 0
	}

	// Every input is checked before any output file is created, so bad
	// input fails cleanly and leaves nothing behind. A second run mode, or
	// -heuristic, -route, -csv or -shards without the run it tunes, is bad
	// input too: otherwise it would be silently ignored.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var modes []string
	for _, m := range []string{"exp", "faults", "jobs", "zoo", "arrivals"} {
		if set[m] {
			modes = append(modes, "-"+m)
		}
	}
	runsExp := len(modes) == 0 || set["exp"] // -exp all is the default mode
	var job func(grads.Options) (string, error)
	var bad error
	switch {
	case len(modes) > 1:
		bad = fmt.Errorf("%s: give one of -exp, -faults, -jobs, -zoo or -arrivals", strings.Join(modes, " and "))
	case set["heuristic"] && *zoo == "":
		bad = errors.New("-heuristic applies only to -zoo")
	case set["route"] && *arrivals == "":
		bad = errors.New("-route applies only to -arrivals")
	case set["csv"] && !runsExp:
		bad = errors.New("-csv applies only to -exp")
	case *shards < 1:
		bad = fmt.Errorf("-shards %d: need at least one shard kernel", *shards)
	case *shards != 1 && !(runsExp && (*exp == "scale-smoke" || *exp == "all")):
		bad = fmt.Errorf("-shards %d applies only to -exp scale-smoke (or all, which runs it)", *shards)
	case *zoo != "":
		bad = errors.Join(errOf(listsched.ParseZoo(*zoo)), errOf(listsched.New(*heuristic)))
		job = func(o grads.Options) (string, error) { return grads.RunZoo(o, *zoo, *heuristic) }
	case *arrivals != "":
		bad = errors.Join(errOf(frontdoor.ParseArrivals(*arrivals)), errOf(frontdoor.ParseRoutePolicy(*route)))
		job = func(o grads.Options) (string, error) { return grads.RunArrivals(o, *arrivals, *route) }
	case *jobs != "":
		bad = errOf(metasched.ParseStream(*jobs))
		job = func(o grads.Options) (string, error) { return grads.RunJobStream(o, *jobs) }
	case *faults != "":
		bad = errOf(faultinject.ParseSpec(*faults))
		job = func(o grads.Options) (string, error) { return grads.RunFaultSpec(o, *faults) }
	case *exp == "all" && !*csv:
		job = grads.RunAll
	default:
		bad = checkExperiment(*exp, *csv)
		job = func(o grads.Options) (string, error) {
			rep, err := grads.RunExperiment(o, *exp)
			if err != nil || !*csv {
				return rep.Text, err
			}
			return rep.Table.CSV(), nil
		}
	}
	if bad != nil {
		fmt.Fprintln(stderr, "gradsim:", bad)
		return 1
	}

	opts := grads.Options{Seed: *seed, ReferenceSolver: *netRef, Shards: *shards}
	var tel *telemetry.Telemetry
	if *traceOut != "" || *jsonlOut != "" || *metrics {
		tel = telemetry.New()
		sinks := []struct {
			path string
			sink func(io.Writer) telemetry.Sink
		}{
			{*traceOut, func(w io.Writer) telemetry.Sink { return telemetry.NewChromeSink(w) }},
			{*jsonlOut, func(w io.Writer) telemetry.Sink { return telemetry.NewJSONL(w) }},
		}
		var created []*os.File
		for _, s := range sinks {
			if s.path == "" {
				continue
			}
			f, err := os.Create(s.path)
			if err != nil {
				// Leave no earlier output file behind.
				for _, c := range created {
					c.Close()
					os.Remove(c.Name())
				}
				fmt.Fprintln(stderr, "gradsim:", err)
				return 1
			}
			created = append(created, f)
			tel.AddSink(s.sink(f))
		}
		opts.Telemetry = tel
	}

	out, err := job(opts)
	if err != nil {
		fmt.Fprintln(stderr, "gradsim:", err)
		return 1
	}
	fmt.Fprint(stdout, out)

	if tel != nil {
		if cerr := tel.Close(); cerr != nil {
			fmt.Fprintln(stderr, "gradsim:", cerr)
			return 1
		}
		if *metrics {
			fmt.Fprintln(stdout, "\n==== telemetry summary ====")
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, tel.Summary())
		}
	}
	return 0
}

// errOf keeps only the error of a parse, for input checks.
func errOf[T any](_ T, err error) error { return err }

// checkExperiment rejects an unknown experiment name or, with csv, one
// without a CSV form.
func checkExperiment(name string, csv bool) error {
	var tabular []string
	for _, info := range grads.Describe() {
		if info.Name == name && (info.HasCSV || !csv) {
			return nil
		}
		if info.HasCSV {
			tabular = append(tabular, info.Name)
		}
	}
	if csv {
		return fmt.Errorf("no CSV form for %q (have: %s)", name, strings.Join(tabular, ", "))
	}
	return fmt.Errorf("unknown experiment %q (have: all, %s)", name, strings.Join(grads.Experiments(), ", "))
}
