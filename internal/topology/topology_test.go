package topology

import (
	"math"
	"slices"
	"strings"
	"testing"

	"grads/internal/netsim"
	"grads/internal/simcore"
)

func TestGridConstruction(t *testing.T) {
	s := simcore.New(1)
	g := NewGrid(s)
	g.AddSite("A", 1e6, 1e-4)
	g.AddSite("B", 2e6, 1e-4)
	g.Connect("A", "B", 1e5, 0.02)
	n1 := g.AddNode(NodeSpec{Name: "a1", Site: "A", Arch: ArchIA32, MHz: 500, FlopsPerCycle: 0.5})
	n2 := g.AddNode(NodeSpec{Name: "a2", Site: "A", Arch: ArchIA32, MHz: 500, FlopsPerCycle: 0.5})
	n3 := g.AddNode(NodeSpec{Name: "b1", Site: "B", Arch: ArchIA64, MHz: 900, FlopsPerCycle: 2})

	if n1.Spec.Flops() != 250e6 {
		t.Fatalf("Flops = %v, want 250e6", n1.Spec.Flops())
	}
	if n3.CPU.Speed() != 1.8e9 {
		t.Fatalf("CPU speed = %v, want 1.8e9", n3.CPU.Speed())
	}
	if got := len(g.Nodes()); got != 3 {
		t.Fatalf("Nodes() len = %d", got)
	}
	if g.Node("a1") != n1 || g.Site("B").Nodes()[0] != n3 {
		t.Fatal("lookup mismatch")
	}

	if r := g.Route(n1, n1); r != nil {
		t.Fatalf("self route = %v, want nil", r)
	}
	if r := g.Route(n1, n2); len(r) != 1 || r[0] != g.Site("A").LAN {
		t.Fatalf("intra-site route = %v", r)
	}
	r := g.Route(n1, n3)
	if len(r) != 3 || r[1] != g.WAN("A", "B") {
		t.Fatalf("inter-site route = %v", r)
	}
	// WAN lookup is symmetric.
	if g.WAN("B", "A") != g.WAN("A", "B") {
		t.Fatal("WAN lookup not symmetric")
	}
}

func TestDuplicatePanics(t *testing.T) {
	s := simcore.New(1)
	g := NewGrid(s)
	g.AddSite("A", 1e6, 0)
	assertPanics(t, "dup site", func() { g.AddSite("A", 1e6, 0) })
	g.AddNode(NodeSpec{Name: "n", Site: "A"})
	assertPanics(t, "dup node", func() { g.AddNode(NodeSpec{Name: "n", Site: "A"}) })
	assertPanics(t, "bad site", func() { g.AddNode(NodeSpec{Name: "m", Site: "ZZZ"}) })
	g.AddSite("B", 1e6, 0)
	g.Connect("A", "B", 1e5, 0.01)
	assertPanics(t, "dup wan", func() { g.Connect("B", "A", 1e5, 0.01) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestMacroGridShape(t *testing.T) {
	g := MacroGrid(simcore.New(1))
	if got := len(g.Nodes()); got != 10+24+24+24 {
		t.Fatalf("MacroGrid has %d nodes, want 82", got)
	}
	// Paper: one UCSD cluster (10), two UTK clusters (24), two UIUC (24), UH (24).
	counts := map[string]int{}
	ia64 := 0
	for _, n := range g.Nodes() {
		counts[n.Site().Name]++
		if n.Spec.Arch == ArchIA64 {
			ia64++
		}
	}
	want := map[string]int{"UCSD": 10, "UTK": 24, "UIUC": 24, "UH": 24}
	for s, w := range want {
		if counts[s] != w {
			t.Fatalf("site %s has %d nodes, want %d", s, counts[s], w)
		}
	}
	if ia64 == 0 {
		t.Fatal("MacroGrid has no IA-64 nodes; §3.3 heterogeneity needs them")
	}
	// All sites pairwise connected.
	sites := []string{"UCSD", "UTK", "UIUC", "UH"}
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			if g.WAN(sites[i], sites[j]) == nil {
				t.Fatalf("missing WAN %s-%s", sites[i], sites[j])
			}
		}
	}
}

func TestQRTestbedMatchesPaper(t *testing.T) {
	g := QRTestbed(simcore.New(1))
	utk := g.Site("UTK").Nodes()
	uiuc := g.Site("UIUC").Nodes()
	if len(utk) != 4 || len(uiuc) != 8 {
		t.Fatalf("QR testbed: %d UTK + %d UIUC, want 4 + 8", len(utk), len(uiuc))
	}
	if utk[0].Spec.MHz != 933 || uiuc[0].Spec.MHz != 450 {
		t.Fatalf("clock rates %v/%v, want 933/450", utk[0].Spec.MHz, uiuc[0].Spec.MHz)
	}
	if g.Site("UTK").LAN.Capacity() != Ethernet100 {
		t.Fatalf("UTK LAN = %v, want 100Mb Ethernet", g.Site("UTK").LAN.Capacity())
	}
	if g.Site("UIUC").LAN.Capacity() != Myrinet {
		t.Fatalf("UIUC LAN = %v, want Myrinet", g.Site("UIUC").LAN.Capacity())
	}
	// Unloaded UTK cluster is faster in aggregate than UIUC (the reason the
	// initial schedule picks UTK).
	if 4*utk[0].Spec.Flops() <= 8*uiuc[0].Spec.Flops() {
		t.Fatal("UTK should out-aggregate UIUC when unloaded")
	}
}

func TestMicroGridTestbedMatchesPaper(t *testing.T) {
	g := MicroGridTestbed(simcore.New(1))
	if len(g.Site("UTK").Nodes()) != 3 || len(g.Site("UIUC").Nodes()) != 3 || len(g.Site("UCSD").Nodes()) != 1 {
		t.Fatal("MicroGrid node counts wrong")
	}
	if lat := g.WAN("UCSD", "UTK").Latency(); lat != 0.030 {
		t.Fatalf("UCSD-UTK latency %v, want 30ms", lat)
	}
	if lat := g.WAN("UTK", "UIUC").Latency(); lat != 0.011 {
		t.Fatalf("UTK-UIUC latency %v, want 11ms", lat)
	}
	if g.Site("UTK").Nodes()[0].Spec.MHz != 550 {
		t.Fatal("UTK MicroGrid nodes should be 550 MHz PII")
	}
}

func TestTransferTimeEstimate(t *testing.T) {
	s := simcore.New(1)
	g := NewGrid(s)
	g.AddSite("A", 1e6, 0.001)
	g.AddSite("B", 1e6, 0.001)
	g.Connect("A", "B", 1e5, 0.01)
	a := g.AddNode(NodeSpec{Name: "a", Site: "A"})
	b := g.AddNode(NodeSpec{Name: "b", Site: "B"})
	est := g.TransferTimeEstimate(a, b, 1e5)
	// 0.001+0.01+0.001 latency + 1e5/1e5 bottleneck = 1.012
	if math.Abs(est-1.012) > 1e-9 {
		t.Fatalf("estimate = %v, want 1.012", est)
	}
}

func TestParseDML(t *testing.T) {
	text := `
# two-site grid
site UTK bw=100Mb lat=100us
site UIUC bw=1.28Gb lat=100us
cluster utk count=4 site=UTK arch=ia32 mhz=933 fpc=0.5 mem=1024 l1=16 l2=256 line=32
node special site=UIUC arch=ia64 mhz=900 fpc=2.0
wan UTK UIUC bw=10Mb lat=11ms
`
	g, err := ParseDML(simcore.New(1), text)
	if err != nil {
		t.Fatalf("ParseDML: %v", err)
	}
	if len(g.Nodes()) != 5 {
		t.Fatalf("parsed %d nodes, want 5", len(g.Nodes()))
	}
	if g.Site("UTK").LAN.Capacity() != 100e6/8 {
		t.Fatalf("UTK LAN capacity = %v", g.Site("UTK").LAN.Capacity())
	}
	n := g.Node("special")
	if n == nil || n.Spec.Arch != ArchIA64 || n.Spec.Flops() != 1.8e9 {
		t.Fatalf("special node parsed wrong: %+v", n)
	}
	if g.Node("utk3").Spec.Cache.L2KB != 256 {
		t.Fatal("cluster cache attrs not applied")
	}
	w := g.WAN("UTK", "UIUC")
	if w == nil || w.Latency() != 0.011 || w.Capacity() != 10e6/8 {
		t.Fatalf("WAN parsed wrong: %+v", w)
	}
}

func TestParseDMLErrors(t *testing.T) {
	bad := []string{
		"frobnicate x",
		"site OnlyName",
		"site X bw=abc lat=1ms",
		"node n1",
		"node n1 arch=ia32", // missing site
		"cluster c site=X",  // missing count
		"wan A",
		"node n1 site=X unknown=1",
	}
	for _, text := range bad {
		if _, err := ParseDML(simcore.New(1), "site X bw=1MB lat=0\n"+text); err == nil {
			t.Fatalf("ParseDML accepted %q", text)
		}
	}
}

func TestParseBandwidthUnits(t *testing.T) {
	cases := map[string]float64{
		"125":    125,
		"1KB":    1e3,
		"12.5MB": 12.5e6,
		"1GB":    1e9,
		"8Kb":    1e3,
		"100Mb":  12.5e6,
		"1.28Gb": 160e6,
	}
	for in, want := range cases {
		got, err := ParseBandwidth(in)
		if err != nil || math.Abs(got-want) > 1e-6 {
			t.Fatalf("ParseBandwidth(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "-5MB", "xMB", "0"} {
		if _, err := ParseBandwidth(bad); err == nil {
			t.Fatalf("ParseBandwidth accepted %q", bad)
		}
	}
}

func TestParseLatencyUnits(t *testing.T) {
	cases := map[string]float64{"0.5": 0.5, "30ms": 0.030, "100us": 100e-6, "2s": 2}
	for in, want := range cases {
		got, err := ParseLatency(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Fatalf("ParseLatency(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLatency("fast"); err == nil {
		t.Fatal("ParseLatency accepted garbage")
	}
}

func TestRoutePanicsWithoutWAN(t *testing.T) {
	s := simcore.New(1)
	g := NewGrid(s)
	g.AddSite("A", 1e6, 0)
	g.AddSite("B", 1e6, 0)
	a := g.AddNode(NodeSpec{Name: "a", Site: "A"})
	b := g.AddNode(NodeSpec{Name: "b", Site: "B"})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "no WAN link") {
			t.Fatalf("expected no-WAN panic, got %v", r)
		}
	}()
	g.Route(a, b)
}

// TestRouteDependsOnlyOnSitePair: on the MacroGrid, every pair of distinct
// nodes with the same ordered site pair gets the same links, in the same
// order. Transfer-parameter memos key on the site pair and rely on this.
func TestRouteDependsOnlyOnSitePair(t *testing.T) {
	g := MacroGrid(simcore.New(1))
	type pair struct{ from, to *Site }
	first := map[pair][]*netsim.Link{}
	nodes := g.Nodes()
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b {
				continue
			}
			route := g.Route(a, b)
			if len(route) == 0 {
				t.Fatalf("Route(%s, %s) is empty", a.Name(), b.Name())
			}
			k := pair{a.Site(), b.Site()}
			want, seen := first[k]
			if !seen {
				first[k] = route
				continue
			}
			if !slices.Equal(route, want) {
				t.Fatalf("Route(%s, %s) = %v, but another %s->%s pair routes over %v",
					a.Name(), b.Name(), route, k.from.Name, k.to.Name, want)
			}
		}
	}
	if sites := len(g.Sites()); len(first) != sites*sites {
		t.Fatalf("saw %d ordered site pairs, want %d", len(first), sites*sites)
	}
}

// TestNodesIndex: Nodes is name-sorted whatever order nodes were added in,
// a slice taken before a later AddNode keeps its contents, and appending
// to the result copies rather than writing into the grid's index.
func TestNodesIndex(t *testing.T) {
	g := NewGrid(simcore.New(1))
	g.AddSite("A", 1e6, 1e-4)
	names := func(ns []*Node) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = n.Name()
		}
		return out
	}
	for _, name := range []string{"c", "a", "d"} {
		g.AddNode(NodeSpec{Name: name, Site: "A"})
	}
	before := g.Nodes()
	if got := names(before); !slices.Equal(got, []string{"a", "c", "d"}) {
		t.Fatalf("Nodes() = %v, want [a c d]", got)
	}
	g.AddNode(NodeSpec{Name: "b", Site: "A"})
	if got := names(g.Nodes()); !slices.Equal(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("Nodes() after AddNode(b) = %v, want [a b c d]", got)
	}
	if got := names(before); !slices.Equal(got, []string{"a", "c", "d"}) {
		t.Fatalf("slice taken before AddNode(b) changed to %v", got)
	}
	grown := append(g.Nodes(), g.Node("a"))
	grown[0] = g.Node("d")
	if got := names(g.Nodes()); !slices.Equal(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("appending to Nodes() changed the index to %v", got)
	}
}
