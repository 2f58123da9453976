package ibp

import (
	"math"
	"testing"

	"grads/internal/simcore"
	"grads/internal/topology"
)

func testGrid(sim *simcore.Sim) *topology.Grid {
	g := topology.NewGrid(sim)
	g.AddSite("A", 1e8, 0)
	g.AddSite("B", 1e8, 0)
	g.Connect("A", "B", 1e6, 0.010)
	g.AddNode(topology.NodeSpec{Name: "a1", Site: "A"})
	g.AddNode(topology.NodeSpec{Name: "b1", Site: "B"})
	return g
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLocalStoreIsCheapRemoteReadIsNot(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	s := New(sim, g)
	s.AddDepotsEverywhere()
	a, b := g.Node("a1"), g.Node("b1")

	var writeDone, readDone float64
	sim.Spawn("app", func(p *simcore.Proc) {
		// Local checkpoint write: disk only.
		if err := s.StoreSum(p, a, a, "ckpt", 4e7, 0); err != nil {
			t.Errorf("StoreSum: %v", err)
		}
		writeDone = p.Now()
		// Remote checkpoint read from the other site: disk + WAN.
		start := p.Now()
		n, err := s.RetrievePartial(p, a, b, "ckpt", 4e7)
		if err != nil || n != 4e7 {
			t.Errorf("RetrievePartial = %v, %v", n, err)
		}
		readDone = p.Now() - start
	})
	sim.Run()
	// Write: 4e7 B at 40 MB/s disk = 1 s. Read: 1 s disk + 40 s WAN.
	if !almost(writeDone, 1.0, 1e-6) {
		t.Fatalf("local write took %v, want 1.0", writeDone)
	}
	if !almost(readDone, 41.01, 0.1) {
		t.Fatalf("remote read took %v, want ~41 (WAN-dominated)", readDone)
	}
	if readDone < 10*writeDone {
		t.Fatal("checkpoint read should dominate write (Figure 3 asymmetry)")
	}
}

func TestStoreReplacesAndDelete(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	s := New(sim, g)
	a := g.Node("a1")
	s.AddDepot(a, 1e9)
	sim.Spawn("app", func(p *simcore.Proc) {
		s.StoreSum(p, a, a, "k", 100, 0)
		s.StoreSum(p, a, a, "k", 250, 0)
	})
	sim.Run()
	if sz, ok := s.Size("a1", "k"); !ok || sz != 250 {
		t.Fatalf("Size = %v, %v; want 250", sz, ok)
	}
	if n := len(s.Depot("a1").blobs); n != 1 {
		t.Fatalf("depot holds %d blobs after a replacing StoreSum, want 1", n)
	}
	s.Delete("a1", "k")
	if _, ok := s.Size("a1", "k"); ok {
		t.Fatal("Delete left the key behind")
	}
}

func TestErrorsOnMissingDepotOrKey(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	s := New(sim, g)
	a, b := g.Node("a1"), g.Node("b1")
	s.AddDepot(a, 0)
	sim.Spawn("app", func(p *simcore.Proc) {
		if err := s.StoreSum(p, a, b, "k", 1, 0); err == nil {
			t.Error("StoreSum to missing depot should fail")
		}
		if _, err := s.RetrievePartial(p, a, a, "ghost", 1); err == nil {
			t.Error("RetrievePartial of missing key should fail")
		}
		if err := s.StoreSum(p, a, a, "neg", -5, 0); err == nil {
			t.Error("negative size should fail")
		}
	})
	sim.Run()
}
