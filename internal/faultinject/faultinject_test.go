package faultinject

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"grads/internal/simcore"
	"grads/internal/topology"
)

func testGrid(sim *simcore.Sim) *topology.Grid {
	g := topology.NewGrid(sim)
	g.AddSite("A", 1e8, 1e-4)
	g.AddSite("B", 1e8, 1e-4)
	g.Connect("A", "B", 1.25e6, 0.011)
	g.AddNode(topology.NodeSpec{Name: "a1", Site: "A", MHz: 1000, FlopsPerCycle: 1})
	g.AddNode(topology.NodeSpec{Name: "a2", Site: "A", MHz: 1000, FlopsPerCycle: 1})
	g.AddNode(topology.NodeSpec{Name: "b1", Site: "B", MHz: 1000, FlopsPerCycle: 1})
	return g
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "outage@10-40:nws;crash@100-400:a1;slow@150-300:a2:4;" +
		"linkslow@50-90:lan:A:0.25;linkdown@200-260:wan:A|B;lag@20:gis:0.5;" +
		"ckptcorrupt@300-500:a1;storm@600-700:a:2"
	events, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(events) != 8 {
		t.Fatalf("parsed %d events, want 8", len(events))
	}
	// Link targets keep their internal colons.
	found := map[string]bool{}
	for _, e := range events {
		found[string(e.Kind)+":"+e.Target] = true
	}
	for _, want := range []string{"linkslow:lan:A", "linkdown:wan:A|B", "lag:gis", "ckptcorrupt:a1", "storm:a"} {
		if !found[want] {
			t.Fatalf("missing %q in parsed events %v", want, events)
		}
	}
	// Format → Parse is the identity on the sorted schedule.
	again, err := ParseSpec(FormatSpec(events))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !reflect.DeepEqual(events, again) {
		t.Fatalf("round trip changed the schedule:\n%v\n%v", events, again)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name, spec, wantErr string
	}{
		{"empty spec", "", "empty fault spec"},
		{"blank events only", " ; ; ", "empty fault spec"},
		{"missing at-sign", "crash:100:a1", "missing '@'"},
		{"unknown kind", "explode@10:a1", `unknown kind "explode"`},
		{"reversed window", "crash@40-10:a1", "end 10 not after start 40"},
		{"zero-length window", "crash@40-40:a1", "not after start"},
		// The leading '-' reads as a window separator, so the start is empty.
		{"negative time", "crash@-5:a1", `bad start time ""`},
		{"missing target separator", "crash@100", "missing ':' before target"},
		{"empty target", "crash@10:", "empty target"},
		{"empty value-kind target", "slow@10::4", "empty target"},
		{"missing value", "slow@10:a1", "needs a ':value' suffix"},
		{"malformed value", "slow@10:a1:x", `bad value "x"`},
		{"non-positive value", "slow@10:a1:-2", "must be positive"},
		{"linkslow factor above 1", "linkslow@10:lan:A:2", "outside (0,1]"},
		{"linkslow factor zero", "linkslow@10:lan:A:0", "outside (0,1]"},
		{"malformed time", "crash@ten:a1", `bad time "ten"`},
		{"malformed start of window", "crash@x-10:a1", `bad start time "x"`},
		{"malformed end of window", "crash@10-y:a1", `bad end time "y"`},
		{"bad event among good ones", "crash@10:a1;lag@5:gis", "needs a ':value' suffix"},
		{"storm without count", "storm@10:utk", "needs a ':value' suffix"},
		{"storm fractional count", "storm@10:utk:0.5", "below 1"},
		{"storm zero count", "storm@10:utk:0", "below 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events, err := ParseSpec(tc.spec)
			if err == nil {
				t.Fatalf("ParseSpec(%q) accepted a bad spec: %v", tc.spec, events)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseSpec(%q) error %q does not mention %q", tc.spec, err, tc.wantErr)
			}
		})
	}
}

func TestGenerateNodeFaultsDeterministicAndSparesSurvivor(t *testing.T) {
	nodes := []string{"a1", "a2", "b1"}
	gen := func() []Event {
		return GenerateNodeFaults(rand.New(rand.NewSource(7)), nodes, 50, 10, 500)
	}
	a, b := gen(), gen()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("no faults generated")
	}
	for _, e := range a {
		if e.Target == "b1" {
			t.Fatal("survivor node b1 was scheduled to crash")
		}
		if e.Kind != KindCrash {
			t.Fatalf("unexpected kind %s", e.Kind)
		}
		if e.End <= e.Start {
			t.Fatalf("mttr > 0 must schedule recovery: %+v", e)
		}
	}
	// Permanent crashes: one per non-survivor node, no recovery.
	perm := GenerateNodeFaults(rand.New(rand.NewSource(7)), nodes, 50, 0, 500)
	if len(perm) != 2 {
		t.Fatalf("permanent schedule has %d events, want 2", len(perm))
	}
	for _, e := range perm {
		if e.End != 0 {
			t.Fatalf("permanent crash has a recovery: %+v", e)
		}
	}
}

// loadSpec parses a -faults spec and loads it into the injector.
func loadSpec(t *testing.T, in *Injector, spec string) {
	t.Helper()
	events, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	in.Load(events)
}

func TestInjectorExecutesTimeline(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	in := NewInjector(sim, g)
	h := NewHealth(sim, "gis")
	in.RegisterService("gis", h)
	loadSpec(t, in, "crash@10-20:a1;outage@5-15:gis;crash@30:nosuch")
	in.Start()

	type probe struct {
		at          float64
		nodeDown    bool
		serviceDown bool
	}
	var probes []probe
	for _, at := range []float64{1, 7, 12, 25} {
		at := at
		sim.At(at, func() {
			probes = append(probes, probe{at, g.Node("a1").Down(), h.Down()})
		})
	}
	sim.Run()

	want := []probe{
		{1, false, false},
		{7, false, true},
		{12, true, true},
		{25, false, false},
	}
	if !reflect.DeepEqual(probes, want) {
		t.Fatalf("timeline probes %v, want %v", probes, want)
	}
	if in.Injected() != 2 || in.Recovered() != 2 {
		t.Fatalf("injected=%d recovered=%d, want 2/2", in.Injected(), in.Recovered())
	}
	if in.Skipped() != 1 {
		t.Fatalf("skipped=%d, want 1 (unknown target)", in.Skipped())
	}
}

// fakeCorruptor records ckptcorrupt actions, standing in for ibp.System.
type fakeCorruptor struct {
	rotted     []string
	corrupting map[string]bool
}

func (f *fakeCorruptor) CorruptAll(node string) int {
	f.rotted = append(f.rotted, node)
	return len(f.rotted)
}

func (f *fakeCorruptor) SetCorrupting(node string, on bool) bool {
	if f.corrupting == nil {
		f.corrupting = make(map[string]bool)
	}
	f.corrupting[node] = on
	return true
}

func TestInjectorCkptCorruptWindow(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	in := NewInjector(sim, g)
	fc := &fakeCorruptor{}
	in.RegisterStorage(fc)
	// A windowed corruption on a1 plus one on an unknown node (skipped).
	loadSpec(t, in, "ckptcorrupt@10-30:a1;ckptcorrupt@10:nosuch")
	in.Start()
	var midWindow, after bool
	sim.At(20, func() { midWindow = fc.corrupting["a1"] })
	sim.At(40, func() { after = fc.corrupting["a1"] })
	sim.Run()
	if len(fc.rotted) != 1 || fc.rotted[0] != "a1" {
		t.Fatalf("rotted %v, want one bit-rot pass on a1", fc.rotted)
	}
	if !midWindow || after {
		t.Fatalf("corrupting window mid=%v after=%v, want open then closed", midWindow, after)
	}
	if in.Skipped() != 1 {
		t.Fatalf("skipped=%d, want 1 (unknown node)", in.Skipped())
	}
}

func TestInjectorStormCrashesAndRevivesVictimSet(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	in := NewInjector(sim, g)
	// 2 a-prefixed victims; b1 crashes independently inside the window and
	// must NOT be revived by the storm's recovery.
	loadSpec(t, in, "storm@10-50:a:2;crash@20:b1")
	in.Start()
	var duringA1, duringA2, duringB1 bool
	sim.At(30, func() {
		duringA1, duringA2, duringB1 = g.Node("a1").Down(), g.Node("a2").Down(), g.Node("b1").Down()
	})
	sim.Run()
	if !duringA1 || !duringA2 || !duringB1 {
		t.Fatalf("mid-storm down states a1=%v a2=%v b1=%v, want all down", duringA1, duringA2, duringB1)
	}
	if g.Node("a1").Down() || g.Node("a2").Down() {
		t.Fatal("storm recovery did not revive its victim set")
	}
	if !g.Node("b1").Down() {
		t.Fatal("storm recovery revived b1, which crashed independently")
	}
}

func TestInjectorStormPicksLiveSortedPrefix(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	in := NewInjector(sim, g)
	// a1 is already down when the storm hits, so the 1-victim storm must
	// fall on a2 (next in sorted order), and the wildcard storm at t=30
	// takes whatever is still alive.
	g.SetNodeDown("a1", true)
	loadSpec(t, in, "storm@10:a:1;storm@30:*:5")
	in.Start()
	var a2AtTwenty bool
	sim.At(20, func() { a2AtTwenty = g.Node("a2").Down() })
	sim.Run()
	if !a2AtTwenty {
		t.Fatal("storm skipped the live sorted-prefix victim a2")
	}
	for _, n := range g.Nodes() {
		if !n.Down() {
			t.Fatalf("wildcard storm left %s alive", n.Name())
		}
	}
	if in.Injected() != 2 {
		t.Fatalf("injected=%d, want 2", in.Injected())
	}
}

func TestInjectorStopFreezesTimeline(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	in := NewInjector(sim, g)
	loadSpec(t, in, "crash@10:a1;crash@100:a2")
	in.Start()
	sim.At(50, in.Stop)
	sim.Run()
	if !g.Node("a1").Down() {
		t.Fatal("first crash did not execute")
	}
	if g.Node("a2").Down() {
		t.Fatal("crash scheduled after Stop still executed")
	}
	if in.Injected() != 1 {
		t.Fatalf("injected=%d, want 1", in.Injected())
	}
}

func TestHealthCheckGateAndLatency(t *testing.T) {
	sim := simcore.New(1)
	h := NewHealth(sim, "gis")
	var nilHealth *Health
	var lagPaid float64
	var downErr, nilErr error
	sim.Spawn("caller", func(p *simcore.Proc) {
		nilErr = nilHealth.Check(p) // nil Health is healthy and free

		h.SetExtraLatency(0.5)
		t0 := p.Now()
		if err := h.Check(p); err != nil {
			t.Errorf("lagged Check failed: %v", err)
		}
		lagPaid = p.Now() - t0

		h.SetExtraLatency(0)
		h.SetDown(true)
		downErr = h.Check(p)
	})
	sim.Run()
	if nilErr != nil {
		t.Fatalf("nil Health rejected a call: %v", nilErr)
	}
	if lagPaid != 0.5 {
		t.Fatalf("lag penalty %v, want 0.5", lagPaid)
	}
	if !Retryable(downErr) || !errors.Is(downErr, ErrUnavailable) {
		t.Fatalf("down Check error %v, want retryable ErrUnavailable", downErr)
	}
	if h.rejected != 1 {
		t.Fatalf("rejected=%d, want 1", h.rejected)
	}
}
