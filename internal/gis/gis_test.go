package gis

import (
	"testing"

	"grads/internal/simcore"
	"grads/internal/topology"
)

func testGrid(sim *simcore.Sim) *topology.Grid {
	g := topology.NewGrid(sim)
	g.AddSite("A", 1e6, 1e-4)
	g.AddSite("B", 1e6, 1e-4)
	g.Connect("A", "B", 1e5, 0.01)
	g.AddNode(topology.NodeSpec{Name: "a1", Site: "A", Arch: topology.ArchIA32, MHz: 933, MemMB: 1024})
	g.AddNode(topology.NodeSpec{Name: "a2", Site: "A", Arch: topology.ArchIA32, MHz: 450, MemMB: 256})
	g.AddNode(topology.NodeSpec{Name: "b1", Site: "B", Arch: topology.ArchIA64, MHz: 900, MemMB: 2048})
	return g
}

func TestQueryResourcesFilters(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	s := New(sim, g)
	s.RegisterSoftware("a1", "scalapack", "/opt/scalapack")

	sim.Spawn("client", func(p *simcore.Proc) {
		all, err := s.QueryResources(p, Filter{}, nil)
		if err != nil || len(all) != 3 {
			t.Errorf("unfiltered query = %d nodes, %v", len(all), err)
		}
		ia64, _ := s.QueryResources(p, Filter{Arch: topology.ArchIA64}, nil)
		if len(ia64) != 1 || ia64[0].Name() != "b1" {
			t.Errorf("arch filter = %v", ia64)
		}
		bigmem, _ := s.QueryResources(p, Filter{MinMemMB: 512}, nil)
		if len(bigmem) != 2 {
			t.Errorf("mem filter = %d nodes, want 2", len(bigmem))
		}
		siteA, _ := s.QueryResources(p, Filter{Site: "A", MinMHz: 500}, nil)
		if len(siteA) != 1 || siteA[0].Name() != "a1" {
			t.Errorf("site+mhz filter = %v", siteA)
		}
		withSW, _ := s.QueryResources(p, Filter{Software: []string{"scalapack"}}, nil)
		if len(withSW) != 1 || withSW[0].Name() != "a1" {
			t.Errorf("software filter = %v", withSW)
		}
		// The answer is appended to dst in name order, so a reused
		// buffer is refilled in place.
		ia32, _ := s.QueryResources(p, Filter{Arch: topology.ArchIA32}, all[:0])
		if len(ia32) != 2 || ia32[0].Name() != "a1" || ia32[1].Name() != "a2" || &ia32[0] != &all[0] {
			t.Errorf("query into a reused buffer = %v", ia32)
		}
	})
	sim.Run()
	if s.queries != 6 {
		t.Fatalf("query count = %d, want 6", s.queries)
	}
	// Each query costs QueryDelay of virtual time.
	if want := 6 * QueryDelay; sim.Now() != want {
		t.Fatalf("virtual time = %v, want %v", sim.Now(), want)
	}
}

func TestLookupSoftware(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	s := New(sim, g)
	s.RegisterSoftwareEverywhere("binder", "/opt/grads/binder")
	sim.Spawn("client", func(p *simcore.Proc) {
		path, err := s.LookupSoftware(p, "b1", "binder")
		if err != nil || path != "/opt/grads/binder" {
			t.Errorf("LookupSoftware = %q, %v", path, err)
		}
		if _, err := s.LookupSoftware(p, "b1", "eman"); err == nil {
			t.Error("missing software lookup should fail")
		}
	})
	sim.Run()
	if !s.HasSoftware("a2", "binder") {
		t.Fatal("RegisterSoftwareEverywhere missed a node")
	}
}

func TestDescribeNode(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	s := New(sim, g)
	s.RegisterSoftware("b1", "eman", "/opt/eman")
	s.RegisterSoftware("b1", "autopilot", "/opt/ap")
	sim.Spawn("client", func(p *simcore.Proc) {
		info, err := s.DescribeNode(p, "b1")
		if err != nil {
			t.Errorf("DescribeNode: %v", err)
			return
		}
		if info.Arch != topology.ArchIA64 || info.Site != "B" || info.MemMB != 2048 {
			t.Errorf("info = %+v", info)
		}
		if len(info.Software) != 2 || info.Software[0] != "autopilot" {
			t.Errorf("software list = %v (want sorted)", info.Software)
		}
		if _, err := s.DescribeNode(p, "zz"); err == nil {
			t.Error("unknown node should error")
		}
	})
	sim.Run()
}
