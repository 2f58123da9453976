// Command simbench is the simulator's benchmark. It runs one workload from
// a seed, times calls into the layers' public functions, checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 they are the per-layer ones, from a traced run that also
// writes its spans and CPU profile under -out.
//
// Usage:
//
//	simbench -workload soak-broker -seed 1 -seconds 10 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"grads/internal/telemetry"
)

// workload is one benchmark input set.
type workload interface {
	// setup builds a rep's inputs from the seed. It runs several times;
	// the last build is the one measured.
	setup(seed int64, tiny bool, sp *spans) error
	// run executes one rep with telemetry attached when tel is non-nil.
	run(tel *telemetry.Telemetry, sp *spans) *outcome
}

var workloads = map[string]func() workload{
	"soak-broker": func() workload { return &soakBroker{} },
	"serve-fleet": func() workload { return &serveFleet{} },
	"dag-plan":    func() workload { return &dagPlan{} },
	"eman-run":    func() workload { return &emanRun{} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, printed untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"events_per_s", "1/s"},
	{"tasks_per_s", "1/s"},
	{"turnaround_s", "s"},
	{"req_p95_s", "s"},
	{"req_samples", "count"},
	{"slr", "ratio"},
	{"makespan_s", "s"},
}

// cpuLayers are the packages whose profile share is reported on its own;
// every other grads/internal package is charged to other.cpu_s.
var cpuLayers = []string{
	"metasched", "cop", "perfmodel", "core", "listsched", "simcore", "netsim",
	"cpusim", "frontdoor", "chaossoak", "resilience", "faultinject", "telemetry",
}

// perLayer are the metrics of single layers, printed by the traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"metasched.admissions", "count"},
		{"metasched.requeues", "count"},
		{"metasched.preempts", "count"},
		{"perfmodel.hits", "count"},
		{"perfmodel.misses", "count"},
		{"perfmodel.hit_ratio", "ratio"},
		{"core.schedules", "count"},
		{"core.schedule_s", "s"},
		{"listsched.tasks", "count"},
		{"listsched.schedule_s", "s"},
		{"listsched.check_s", "s"},
		{"simcore.events", "count"},
		{"netsim.solver_passes", "count"},
		{"netsim.flows_solved", "count"},
		{"exec.run_s", "s"},
		{"frontdoor.requests", "count"},
		{"frontdoor.offloads", "count"},
		{"frontdoor.drops", "count"},
		{"frontdoor.generate_s", "s"},
		{"resilience.retries", "count"},
		{"resilience.breaker_opens", "count"},
		{"faultinject.injected", "count"},
		{"telemetry.events", "count"},
		{"telemetry.overhead_s", "s"},
		{"gc.cycles", "count"},
		{"gc.cpu_s", "s"},
		{"host.steal_s", "s"},
		{"host.ref_s", "s"},
		{"profile.cpu_s", "s"},
		{"runtime.bg_cpu_s", "s"},
		{"other.cpu_s", "s"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_s", "s"})
	}
	return defs
}()

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	out      string // directory for the traced run's spans and profile
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run learned, beyond the result line.
type report struct {
	res                 result
	noise               hostNoise
	digest              uint64
	problems            []string
	setups              int            // set-ups timed
	reps                int            // untraced reps timed
	traced              int            // traced reps
	rawWall             float64        // median unscaled wall seconds of an untraced rep
	wallScale, cpuScale float64        // to seconds at the reference speed
	tel                 map[string]int // telemetry events per component, per traced rep
}

const (
	setupBatches = 5   // timed set-up batches per run; setup_s is their median
	setupBatchS  = 0.2 // host seconds a set-up batch lasts at least
	minReps      = 3   // untraced reps per run, however long they take
	minPairs     = 2   // traced-run overhead pairs, however long they take
	maxProcs     = 1   // GOMAXPROCS: one thread at a time, as the reference loop runs
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end")
	size := flag.String("size", "full", "input size: full, or tiny for a smoke check")
	flag.StringVar(&o.out, "out", ".bench_build/simbench-out", "directory for traced-run spans and profiles")
	flag.Parse()
	o.trace = trace == 1
	switch {
	case trace != 0 && trace != 1:
		fatalf("-trace must be 0 or 1")
	case *size != "full" && *size != "tiny":
		fatalf("-size must be full or tiny")
	case o.seconds <= 0:
		fatalf("-seconds must be positive")
	}
	o.tiny = *size == "tiny"

	rep, err := bench(o)
	if err != nil {
		fatalf("%v", err)
	}
	printReport(os.Stdout, o, rep)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simbench: "+format+"\n", args...)
	os.Exit(2)
}

// tracedRep runs one rep with a telemetry hub attached: one sink counts
// events by component, the other encodes JSONL to a discard writer.
func tracedRep(w workload, sp *spans) (*outcome, hostCost, *compCounter, error) {
	tel := telemetry.New()
	counter := &compCounter{byComp: map[string]int{}}
	tel.AddSink(counter)
	tel.AddSink(telemetry.NewJSONL(io.Discard))
	var out *outcome
	c := measure(func() { out = w.run(tel, sp) })
	if err := tel.Close(); err != nil {
		return nil, c, nil, fmt.Errorf("telemetry: %w", err)
	}
	return out, c, counter, nil
}

// bench runs one workload. After one warm-up rep it times the set-up, then
// either untraced reps for the end-to-end metrics and one traced witness
// rep, or (traced run) profiled traced reps followed by alternating
// untraced and telemetry-only reps. Every rep must produce the same
// modelled results.
func bench(o options) (*report, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	w := mk()
	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)
	steal0 := stealTicks()

	var sp *spans
	if o.trace {
		sp = newSpans()
	}
	r := &report{tel: map[string]int{}}
	var digests []uint64
	tally := func(out *outcome) {
		r.res.Attempted += out.attempted
		r.res.Failed += out.failed
		r.problems = append(r.problems, out.problems...)
	}

	// One warm-up rep at tiny size, untimed, so that lazy initialisation
	// and heap growth land in neither set-up nor the first timed rep.
	warm := mk()
	if err := warm.setup(o.seed, true, nil); err != nil {
		return nil, fmt.Errorf("%s warm-up set-up: %w", o.workload, err)
	}
	tally(warm.run(nil, nil))

	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}

	// Set-up: each batch builds the inputs from the seed, in runs of 1, 2,
	// 4, ... builds, until setupBatchS has passed; setup_s is the median
	// time of one build. Reading the clock only between runs keeps its cost
	// out of builds that take well under a microsecond.
	var setups []float64
	for b := 0; b < setupBatches; b++ {
		n := 0
		var err error
		c, cerr := cal.timed(func() {
			t0 := time.Now()
			for run := 1; n == 0 || time.Since(t0).Seconds() < setupBatchS; run *= 2 {
				for k := 0; k < run; k++ {
					if err = w.setup(o.seed, o.tiny, sp); err != nil {
						return
					}
				}
				n += run
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		if cerr != nil {
			return nil, cerr
		}
		setups = append(setups, c.wall/float64(n))
		r.setups += n
	}

	window := time.Duration(o.seconds * float64(time.Second))
	// Host times are kept raw here and scaled to the reference speed when
	// the run ends.
	var walls, cpus, rss, allocs, gcCycles, gcCPU, evRate, taskRate []float64
	untraced := func() (*outcome, error) {
		var out *outcome
		peak := 0.0
		c, err := cal.timed(func() {
			resetPeakRSS()
			out = w.run(nil, nil)
			peak = peakRSSMB()
		})
		if err != nil {
			return nil, err
		}
		tally(out)
		digests = append(digests, out.fingerprint())
		walls = append(walls, c.wall)
		rss = append(rss, peak)
		cpus = append(cpus, c.cpu)
		allocs = append(allocs, float64(c.alloc)/1e6)
		gcCycles = append(gcCycles, float64(c.gcCycles))
		gcCPU = append(gcCPU, c.gcCPU)
		evRate = append(evRate, float64(out.events)/c.wall)
		taskRate = append(taskRate, float64(out.tasks)/c.wall)
		return out, nil
	}
	var telEvents []int
	traced := func(sp *spans) (*outcome, hostCost, error) {
		out, c, counter, err := tracedRep(w, sp)
		if err != nil {
			return nil, c, err
		}
		tally(out)
		digests = append(digests, out.fingerprint())
		if len(telEvents) == 0 {
			r.tel = counter.byComp
		}
		telEvents = append(telEvents, counter.total)
		r.traced++
		return out, c, nil
	}

	var witness *outcome
	var prof bytes.Buffer
	var overheads []float64
	if !o.trace {
		// Untraced reps, each timed against the reference loop, then one
		// traced witness rep that must reproduce their results.
		start := time.Now()
		for len(walls) < minReps || time.Since(start) < window {
			if _, err := untraced(); err != nil {
				return nil, err
			}
		}
		var err error
		if witness, _, err = traced(nil); err != nil {
			return nil, err
		}
	} else {
		// Half the window: traced reps under the CPU profiler, with spans.
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		start := time.Now()
		for r.traced == 0 || time.Since(start) < window/2 {
			var err error
			if witness, _, err = traced(sp); err != nil {
				pprof.StopCPUProfile()
				return nil, err
			}
		}
		pprof.StopCPUProfile()
		profiled := r.traced
		// The other half: untraced and telemetry-only reps in turn, with no
		// profiler or spans, so that their difference is telemetry's cost.
		start = time.Now()
		for len(overheads) < minPairs || time.Since(start) < window/2 {
			if _, err := untraced(); err != nil {
				return nil, err
			}
			_, c, err := traced(nil)
			if err != nil {
				return nil, err
			}
			overheads = append(overheads, c.wall-walls[len(walls)-1])
		}
		r.traced = profiled
	}
	r.reps = len(walls)
	r.rawWall = median(walls)
	r.wallScale, r.cpuScale = cal.scale()
	if t := stealTicks(); t >= 0 && steal0 >= 0 {
		r.noise.StealS = float64(t-steal0) / userHZ
	} else {
		r.noise.StealS = -1
	}
	r.noise.GOMAXPROCS, r.noise.NumCPU = procs, runtime.NumCPU()
	r.noise.RefS = median(cal.walls)

	// Modelled results must not depend on the rep or on tracing.
	r.digest = digests[0]
	for i, d := range digests {
		if d != r.digest {
			r.problems = append(r.problems, fmt.Sprintf("rep %d digest %016x differs from rep 0's %016x", i, d, r.digest))
			r.res.Failed = r.res.Attempted
			break
		}
	}
	for _, n := range telEvents[1:] {
		if n != telEvents[0] {
			r.problems = append(r.problems, fmt.Sprintf("traced reps emitted %v telemetry events", telEvents))
			r.res.Failed = r.res.Attempted
			break
		}
	}
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0

	m := map[string]float64{}
	if !o.trace {
		m["setup_s"] = median(setups) * r.wallScale
		m["wall_s"] = median(walls) * r.wallScale
		m["cpu_s"] = median(cpus) * r.cpuScale
		m["alloc_mb"] = median(allocs)
		m["peak_rss_mb"] = median(rss)
		m["events_per_s"] = median(evRate) / r.wallScale
		m["tasks_per_s"] = median(taskRate) / r.wallScale
		m["turnaround_s"] = mean(witness.lat)
		m["req_p95_s"] = quantile(witness.lat, 0.95)
		m["req_samples"] = float64(len(witness.lat))
		m["slr"] = witness.achieved / witness.bound
		m["makespan_s"] = witness.makespan
	} else {
		for k, v := range witness.counts {
			m[k] = v
		}
		if n := m["perfmodel.hits"] + m["perfmodel.misses"]; n > 0 {
			m["perfmodel.hit_ratio"] = m["perfmodel.hits"] / n
		}
		per := float64(r.traced)
		m["core.schedule_s"] = (sp.total("core.ScheduleWith") + sp.total("core.Schedule")) / per
		m["listsched.schedule_s"] = sp.total("listsched.Schedule") / per
		m["listsched.check_s"] = sp.total("listsched.CheckResult") / per
		m["exec.run_s"] = sp.total("experiments.ExecuteSchedule") / per
		m["frontdoor.generate_s"] = sp.total("frontdoor.Generate") / float64(r.setups) // generated in set-up
		m["telemetry.events"] = float64(telEvents[0])
		m["telemetry.overhead_s"] = median(overheads)
		m["gc.cycles"] = median(gcCycles)
		m["gc.cpu_s"] = median(gcCPU)
		m["host.steal_s"] = r.noise.StealS
		m["host.ref_s"] = r.noise.RefS
		shares, err := cpuShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		total := 0.0
		for pkg, s := range shares {
			total += s
			m[cpuMetric(pkg)] += s / per
		}
		m["profile.cpu_s"] = total / per
		if err := writeTrace(o, sp, prof.Bytes()); err != nil {
			return nil, err
		}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	r.res.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// No unit of work completed, so there is nothing to average.
			r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", d.name, v))
			r.res.Correct = false
			v = 0
		}
		r.res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r, nil
}

// cpuMetric names the per-layer metric a profile bucket is reported under.
func cpuMetric(pkg string) string {
	if pkg == bgBucket {
		return "runtime.bg_cpu_s"
	}
	for _, l := range cpuLayers {
		if pkg == l {
			return l + ".cpu_s"
		}
	}
	return "other.cpu_s"
}

// writeTrace stores the traced run's spans and CPU profile.
func writeTrace(o options, sp *spans, prof []byte) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := sp.write(base + ".spans.jsonl"); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// compCounter is the traced run's telemetry sink: it counts events by
// component.
type compCounter struct {
	mu     sync.Mutex
	byComp map[string]int
	total  int
}

func (c *compCounter) Emit(e telemetry.Event) {
	c.mu.Lock()
	comp, _, _ := strings.Cut(e.Comp, ":") // one bucket per CPU or broker kind
	c.byComp[comp]++
	c.total++
	c.mu.Unlock()
}

func (c *compCounter) Close() error { return nil }

// printReport writes the readable report and, last, the JSON result line.
func printReport(w io.Writer, o options, r *report) {
	fmt.Fprintf(w, "workload %s seed %d: %d set-ups, %d untraced reps (median raw wall %.4g s), %d traced, digest %016x\n",
		o.workload, o.seed, r.setups, r.reps, r.rawWall, r.traced, r.digest)
	fmt.Fprintln(w, r.noise)
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", n, r.res.Metrics[n].Value, r.res.Metrics[n].Unit)
	}
	if o.trace {
		comps := make([]string, 0, len(r.tel))
		for c := range r.tel {
			comps = append(comps, c)
		}
		sort.Strings(comps)
		for _, c := range comps {
			fmt.Fprintf(w, "  telemetry[%s] %d\n", c, r.tel[c])
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}
