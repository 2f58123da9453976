package vgrid

import (
	"testing"

	"grads/internal/gis"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// macro builds the MacroGrid with a GIS carrying one selective package.
func macro(t *testing.T) (*topology.Grid, *gis.Service) {
	t.Helper()
	sim := simcore.New(1)
	g := topology.MacroGrid(sim)
	gs := gis.New(sim, g)
	gs.RegisterSoftware("ucsd1", "special", "/opt/special")
	gs.RegisterSoftware("ucsd2", "special", "/opt/special")
	return g, gs
}

func TestClusterBindsSingleSite(t *testing.T) {
	g, gs := macro(t)
	f := NewFinder(g, gs, nil)
	v, err := f.Find(Spec{Name: "mpi", MinNodes: 10, Arch: topology.ArchIA32})
	if err != nil {
		t.Fatal(err)
	}
	site := v.Nodes[0].Site()
	for _, n := range v.Nodes {
		if n.Site() != site {
			t.Fatalf("cluster spans sites %s and %s", site.Name, n.Site().Name)
		}
		if n.Spec.Arch != topology.ArchIA32 {
			t.Fatalf("arch constraint violated: %s", n.Name())
		}
	}
	// Best IA-32 cluster of 10: UCSD's 10x 1.36 Gflop/s Athlons.
	if site.Name != "UCSD" {
		t.Fatalf("picked %s, want UCSD", site.Name)
	}
}

// TestClusterTieBindsFirstSiteByName: three identical two-node sites tie
// on lock-step rate; every call must bind the same one, the first by name,
// whatever order the sites were added in.
func TestClusterTieBindsFirstSiteByName(t *testing.T) {
	g := topology.NewGrid(simcore.New(1))
	for _, site := range []string{"B", "C", "A"} {
		g.AddSite(site, 1e8, 1e-4)
		for _, i := range []string{"1", "2"} {
			g.AddNode(topology.NodeSpec{Name: site + i, Site: site, Arch: topology.ArchIA32, MHz: 1000, FlopsPerCycle: 1, MemMB: 512})
		}
	}
	f := NewFinder(g, nil, nil)
	for call := 0; call < 50; call++ {
		v, err := f.Find(Spec{Name: "mpi", MinNodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := v.Nodes[0].Site().Name; got != "A" {
			t.Fatalf("call %d bound site %s, want A", call, got)
		}
	}
}

func TestClusterAvoidsLoadedSite(t *testing.T) {
	g, gs := macro(t)
	for _, n := range g.Site("UCSD").Nodes() {
		n.CPU.SetExternalLoad(4) // UCSD now effectively 5x slower
	}
	f := NewFinder(g, gs, nil)
	v, err := f.Find(Spec{Name: "mpi", MinNodes: 10, Arch: topology.ArchIA32})
	if err != nil {
		t.Fatal(err)
	}
	if v.Nodes[0].Site().Name == "UCSD" {
		t.Fatal("picked the loaded site")
	}
}

func TestSoftwareConstraint(t *testing.T) {
	g, gs := macro(t)
	f := NewFinder(g, gs, nil)
	v, err := f.Find(Spec{Name: "sw", MinNodes: 2, Software: []string{"special"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range v.Nodes {
		if !gs.HasSoftware(n.Name(), "special") {
			t.Fatalf("%s lacks the required software", n.Name())
		}
	}
	if _, err := f.Find(Spec{Name: "sw", MinNodes: 3, Software: []string{"special"}}); err == nil {
		t.Fatal("only 2 nodes have the software; MinNodes=3 should fail")
	}
}

func TestDownNodesExcluded(t *testing.T) {
	g, gs := macro(t)
	for _, n := range g.Site("UH").Nodes() {
		n.SetDown(true)
	}
	f := NewFinder(g, gs, nil)
	v, err := f.Find(Spec{Name: "mpi", MinNodes: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range v.Nodes {
		if n.Site().Name == "UH" {
			t.Fatal("selected a failed node")
		}
	}
	if _, err := f.Find(Spec{Name: "ia64", MinNodes: 1, Arch: topology.ArchIA64}); err == nil {
		t.Fatal("all IA-64 nodes are down; request should fail")
	}
}

func TestSpecValidation(t *testing.T) {
	g, gs := macro(t)
	f := NewFinder(g, gs, nil)
	if _, err := f.Find(Spec{Name: "zero"}); err == nil {
		t.Fatal("MinNodes=0 accepted")
	}
	if _, err := f.Find(Spec{Name: "huge", MinNodes: 1000}); err == nil {
		t.Fatal("oversized request accepted")
	}
}
