// Command benchguard is the repo's benchmark-regression gate: it parses
// `go test -bench` output on stdin, evaluates a set of gates — each pins a
// benchmark (optionally against a baseline benchmark) to a speedup floor
// and/or an allocs/op ceiling — writes a JSON report, and fails (exit 1)
// unless every gate passes.
//
// Usage:
//
//	go test -bench 'BenchmarkKernel' -run xxx -benchmem -count 3 ./internal/simcore | \
//	    benchguard -o BENCH_kernel.json -suite kernel \
//	      -gate 'name=event_throughput,new=BenchmarkKernelEventThroughput,base=BenchmarkKernelEventThroughputLegacy,min-speedup=2.0,max-allocs=0' \
//	      -gate 'name=traced,new=BenchmarkKernelEventThroughputTraced,base=BenchmarkKernelEventThroughputTracedLegacy,min-speedup=5.0,max-allocs=0'
//
// Gate spec keys (comma-separated key=value pairs):
//
//	name        gate label in the report (defaults to the new benchmark name)
//	new         benchmark under test (required)
//	base        baseline benchmark; with it, speedup = base/new is computed
//	min-speedup speedup floor; requires base (default: none)
//	max-allocs  allocs/op ceiling on the new benchmark; requires -benchmem
//	            output (default: none)
//
// Benchmark names match exactly, or exactly up to the -N GOMAXPROCS suffix
// ("BenchmarkX" matches "BenchmarkX-8" but never "BenchmarkXLegacy-8").
// With -count > 1 the best (minimum) ns/op and the worst (maximum)
// allocs/op per benchmark are kept, damping scheduler noise on shared CI
// runners without loosening the allocation ceiling.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"grads/internal/spec"
)

// Gate is one benchmark constraint, parsed from a -gate flag.
type Gate struct {
	Name       string   `json:"name"`
	New        string   `json:"new_benchmark"`
	Base       string   `json:"base_benchmark,omitempty"`
	MinSpeedup float64  `json:"min_speedup,omitempty"`
	MaxAllocs  *int64   `json:"max_allocs_op,omitempty"`
	NewNsOp    float64  `json:"new_ns_op"`
	BaseNsOp   float64  `json:"base_ns_op,omitempty"`
	Speedup    float64  `json:"speedup,omitempty"`
	NewAllocs  *int64   `json:"new_allocs_op,omitempty"`
	Failures   []string `json:"failures,omitempty"`
	Pass       bool     `json:"pass"`
}

// Report is the JSON shape of the BENCH_*.json files.
type Report struct {
	Suite string `json:"suite"`
	Gates []Gate `json:"gates"`
	Pass  bool   `json:"pass"`
}

// result accumulates the best-of-count measurements for one benchmark.
type result struct {
	nsOp      float64
	allocs    int64
	hasAllocs bool
	seen      bool
}

type gateFlags []string

func (g *gateFlags) String() string     { return strings.Join(*g, "; ") }
func (g *gateFlags) Set(v string) error { *g = append(*g, v); return nil }

func main() {
	out := flag.String("o", "BENCH.json", "report output path")
	suite := flag.String("suite", "bench", "suite name recorded in the report")
	var specs gateFlags
	flag.Var(&specs, "gate", "gate spec 'name=...,new=Benchmark...,base=Benchmark...,min-speedup=2.0,max-allocs=0' (repeatable)")
	flag.Parse()

	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no -gate flags given")
		os.Exit(1)
	}
	gates := make([]Gate, len(specs))
	for i, s := range specs {
		g, err := parseGate(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: bad -gate %q: %v\n", s, err)
			os.Exit(1)
		}
		gates[i] = g
	}

	results := map[string]*result{}
	for _, g := range gates {
		results[g.New] = &result{}
		if g.Base != "" {
			results[g.Base] = &result{}
		}
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the raw bench output through
		name, ns, allocs, hasAllocs, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		for want, r := range results {
			if !benchNameMatches(name, want) {
				continue
			}
			if !r.seen || ns < r.nsOp {
				r.nsOp = ns
			}
			if hasAllocs && (!r.hasAllocs || allocs > r.allocs) {
				r.allocs, r.hasAllocs = allocs, true
			}
			r.seen = true
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: reading stdin:", err)
		os.Exit(1)
	}

	rep := Report{Suite: *suite, Pass: true}
	for _, g := range gates {
		evalGate(&g, results)
		if !g.Pass {
			rep.Pass = false
		}
		rep.Gates = append(rep.Gates, g)
		printGate(&g)
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
	fmt.Printf("benchguard: suite %s -> %s\n", rep.Suite, passWord(rep.Pass))
	if !rep.Pass {
		os.Exit(1)
	}
}

// evalGate fills the measured fields of g from results and decides pass.
func evalGate(g *Gate, results map[string]*result) {
	g.Pass = true
	fail := func(format string, args ...any) {
		g.Failures = append(g.Failures, fmt.Sprintf(format, args...))
		g.Pass = false
	}
	nr := results[g.New]
	if !nr.seen {
		fail("benchmark %s not found in input", g.New)
		return
	}
	g.NewNsOp = nr.nsOp
	if nr.hasAllocs {
		a := nr.allocs
		g.NewAllocs = &a
	}
	if g.Base != "" {
		br := results[g.Base]
		if !br.seen {
			fail("baseline benchmark %s not found in input", g.Base)
			return
		}
		g.BaseNsOp = br.nsOp
		g.Speedup = br.nsOp / nr.nsOp
		if g.MinSpeedup > 0 && g.Speedup < g.MinSpeedup {
			fail("speedup %.2fx below floor %.2fx", g.Speedup, g.MinSpeedup)
		}
	}
	if g.MaxAllocs != nil {
		if !nr.hasAllocs {
			fail("no allocs/op for %s (run go test with -benchmem)", g.New)
		} else if nr.allocs > *g.MaxAllocs {
			fail("%d allocs/op above ceiling %d", nr.allocs, *g.MaxAllocs)
		}
	}
}

func printGate(g *Gate) {
	var b strings.Builder
	fmt.Fprintf(&b, "benchguard: gate %-22s %10.1f ns/op", g.Name, g.NewNsOp)
	if g.Base != "" && g.BaseNsOp > 0 {
		fmt.Fprintf(&b, "  vs %10.1f ns/op  speedup %5.2fx", g.BaseNsOp, g.Speedup)
		if g.MinSpeedup > 0 {
			fmt.Fprintf(&b, " (floor %.2fx)", g.MinSpeedup)
		}
	}
	if g.NewAllocs != nil {
		fmt.Fprintf(&b, "  %d allocs/op", *g.NewAllocs)
		if g.MaxAllocs != nil {
			fmt.Fprintf(&b, " (ceiling %d)", *g.MaxAllocs)
		}
	}
	fmt.Fprintf(&b, " -> %s", passWord(g.Pass))
	fmt.Println(b.String())
	for _, f := range g.Failures {
		fmt.Printf("benchguard:   %s\n", f)
	}
}

// parseGate parses one -gate spec of comma-separated key=value pairs; a
// key given twice is an error, so a repeated floor cannot loosen a gate.
func parseGate(s string) (Gate, error) {
	var g Gate
	params, err := spec.Params(s)
	if err != nil {
		return g, err
	}
	for _, kv := range params {
		k, v := kv.Key, kv.Val
		switch k {
		case "name":
			g.Name = v
		case "new":
			g.New = v
		case "base":
			g.Base = v
		case "min-speedup":
			f, err := spec.Float(v)
			if err != nil || f <= 0 {
				return g, fmt.Errorf("bad min-speedup %q", v)
			}
			g.MinSpeedup = f
		case "max-allocs":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return g, fmt.Errorf("bad max-allocs %q", v)
			}
			g.MaxAllocs = &n
		default:
			return g, fmt.Errorf("unknown key %q", k)
		}
	}
	if g.New == "" {
		return g, fmt.Errorf("missing new=")
	}
	if g.MinSpeedup > 0 && g.Base == "" {
		return g, fmt.Errorf("min-speedup requires base=")
	}
	if g.Name == "" {
		g.Name = strings.TrimPrefix(g.New, "Benchmark")
	}
	return g, nil
}

func passWord(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

// benchNameMatches reports whether a result line's benchmark name is want:
// exact, or want plus the "-N" GOMAXPROCS suffix go test appends. A plain
// prefix match would be wrong — "BenchmarkX" must not match
// "BenchmarkXLegacy-8".
func benchNameMatches(name, want string) bool {
	if name == want {
		return true
	}
	return strings.HasPrefix(name, want) && len(name) > len(want) && name[len(want)] == '-'
}

// parseBenchLine extracts the name, ns/op and (with -benchmem) allocs/op of
// one `go test -bench` result line
// ("BenchmarkX-8  1000  1234 ns/op  5 B/op  2 allocs/op").
func parseBenchLine(line string) (name string, nsOp float64, allocs int64, hasAllocs, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, 0, false, false
	}
	found := false
	for i := 2; i+1 < len(fields); i++ {
		switch fields[i+1] {
		case "ns/op":
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return "", 0, 0, false, false
			}
			nsOp, found = v, true
		case "allocs/op":
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err == nil {
				allocs, hasAllocs = v, true
			}
		}
	}
	if !found {
		return "", 0, 0, false, false
	}
	return fields[0], nsOp, allocs, hasAllocs, true
}
