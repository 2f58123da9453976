package main

import (
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line      string
		name      string
		ns        float64
		allocs    int64
		hasAllocs bool
		ok        bool
	}{
		{"BenchmarkKernelEventThroughput-8  24729818  90.44 ns/op  0 B/op  0 allocs/op",
			"BenchmarkKernelEventThroughput-8", 90.44, 0, true, true},
		{"BenchmarkX  1000  1234 ns/op", "BenchmarkX", 1234, 0, false, true},
		{"BenchmarkY-16  5  17454561 ns/op  8980003 B/op  201309 allocs/op",
			"BenchmarkY-16", 17454561, 201309, true, true},
		{"goos: linux", "", 0, 0, false, false},
		{"PASS", "", 0, 0, false, false},
		{"BenchmarkBroken  1000  fast ns/op", "", 0, 0, false, false},
	}
	for _, c := range cases {
		name, ns, allocs, hasAllocs, ok := parseBenchLine(c.line)
		if ok != c.ok || name != c.name || ns != c.ns || allocs != c.allocs || hasAllocs != c.hasAllocs {
			t.Errorf("parseBenchLine(%q) = (%q, %v, %d, %v, %v), want (%q, %v, %d, %v, %v)",
				c.line, name, ns, allocs, hasAllocs, ok, c.name, c.ns, c.allocs, c.hasAllocs, c.ok)
		}
	}
}

func TestBenchNameMatches(t *testing.T) {
	cases := []struct {
		name, want string
		match      bool
	}{
		{"BenchmarkX", "BenchmarkX", true},
		{"BenchmarkX-8", "BenchmarkX", true},
		{"BenchmarkX-128", "BenchmarkX", true},
		{"BenchmarkXLegacy", "BenchmarkX", false},
		{"BenchmarkXLegacy-8", "BenchmarkX", false},
		{"BenchmarkX", "BenchmarkXLegacy", false},
	}
	for _, c := range cases {
		if got := benchNameMatches(c.name, c.want); got != c.match {
			t.Errorf("benchNameMatches(%q, %q) = %v, want %v", c.name, c.want, got, c.match)
		}
	}
}

func TestParseGate(t *testing.T) {
	g, err := parseGate("name=churn,new=BenchmarkNew,base=BenchmarkOld,min-speedup=2.5,max-allocs=0")
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "churn" || g.New != "BenchmarkNew" || g.Base != "BenchmarkOld" ||
		g.MinSpeedup != 2.5 || g.MaxAllocs == nil || *g.MaxAllocs != 0 {
		t.Fatalf("parsed gate %+v", g)
	}

	if g, err = parseGate("new=BenchmarkSolo,max-allocs=3"); err != nil {
		t.Fatal(err)
	} else if g.Name != "Solo" {
		t.Fatalf("default name = %q, want Solo", g.Name)
	}

	for _, bad := range []string{
		"",                                // missing new=
		"base=BenchmarkOld",               // missing new=
		"new=BenchmarkX,min-speedup=2",    // floor without base
		"new=BenchmarkX,min-speedup=fast", // unparsable floor
		"new=BenchmarkX,max-allocs=-1",    // negative ceiling
		"new=BenchmarkX,unknown-key=1",    // unknown key
		"new=BenchmarkX,min-speedup",      // not key=value
		"new=BenchmarkX,base=BenchmarkY,min-speedup=2.5,min-speedup=0.5", // repeated floor
		"new=BenchmarkX,new=BenchmarkY",                                  // repeated new=
		"new=BenchmarkX,base=BenchmarkY,min-speedup=NaN",                 // non-finite floor
		"new=BenchmarkX,", // blank item
	} {
		if _, err := parseGate(bad); err == nil {
			t.Errorf("parseGate(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestEvalGate(t *testing.T) {
	zero := int64(0)
	results := map[string]*result{
		"BenchmarkNew":    {nsOp: 100, allocs: 0, hasAllocs: true, seen: true},
		"BenchmarkOld":    {nsOp: 550, allocs: 1, hasAllocs: true, seen: true},
		"BenchmarkNoMem":  {nsOp: 10, seen: true},
		"BenchmarkAbsent": {},
	}

	g := Gate{New: "BenchmarkNew", Base: "BenchmarkOld", MinSpeedup: 5, MaxAllocs: &zero}
	evalGate(&g, results)
	if !g.Pass || g.Speedup != 5.5 || g.NewAllocs == nil || *g.NewAllocs != 0 {
		t.Fatalf("passing gate evaluated to %+v", g)
	}

	g = Gate{New: "BenchmarkNew", Base: "BenchmarkOld", MinSpeedup: 6}
	evalGate(&g, results)
	if g.Pass || len(g.Failures) != 1 || !strings.Contains(g.Failures[0], "below floor") {
		t.Fatalf("speedup floor not enforced: %+v", g)
	}

	g = Gate{New: "BenchmarkOld", MaxAllocs: &zero}
	evalGate(&g, results)
	if g.Pass || !strings.Contains(strings.Join(g.Failures, ";"), "above ceiling") {
		t.Fatalf("alloc ceiling not enforced: %+v", g)
	}

	g = Gate{New: "BenchmarkNoMem", MaxAllocs: &zero}
	evalGate(&g, results)
	if g.Pass || !strings.Contains(strings.Join(g.Failures, ";"), "-benchmem") {
		t.Fatalf("missing -benchmem not reported: %+v", g)
	}

	g = Gate{New: "BenchmarkAbsent"}
	evalGate(&g, results)
	if g.Pass {
		t.Fatalf("absent benchmark passed: %+v", g)
	}
}
