package ibp

import (
	"errors"
	"testing"

	"grads/internal/faultinject"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// replicaGrid: two nodes at A, one at B, depots everywhere.
func replicaGrid(sim *simcore.Sim) *topology.Grid {
	g := topology.NewGrid(sim)
	g.AddSite("A", 1e8, 0)
	g.AddSite("B", 1e8, 0)
	g.Connect("A", "B", 1e6, 0.010)
	g.AddNode(topology.NodeSpec{Name: "a1", Site: "A"})
	g.AddNode(topology.NodeSpec{Name: "a2", Site: "A"})
	g.AddNode(topology.NodeSpec{Name: "b1", Site: "B"})
	return g
}

func TestDepotOpsFailWhenNodeDown(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	s := New(sim, g)
	s.AddDepotsEverywhere()
	a, b := g.Node("a1"), g.Node("b1")
	sim.Spawn("app", func(p *simcore.Proc) {
		if err := s.StoreSum(p, a, a, "k", 1e6, 0); err != nil {
			t.Errorf("StoreSum before crash: %v", err)
		}
		a.SetDown(true)
		if err := s.StoreSum(p, b, a, "k2", 1e6, 0); !errors.Is(err, ErrDepotDown) {
			t.Errorf("StoreSum to down depot = %v, want ErrDepotDown", err)
		}
		if _, err := s.RetrievePartial(p, a, b, "k", 100); !errors.Is(err, ErrDepotDown) {
			t.Errorf("RetrievePartial from down depot = %v, want ErrDepotDown", err)
		}
		// The class is retryable: the node may come back.
		if err := s.StoreSum(p, b, a, "k2", 1e6, 0); !faultinject.Retryable(err) {
			t.Errorf("ErrDepotDown must be retryable, got %v", err)
		}
		a.SetDown(false)
		if _, err := s.RetrievePartial(p, a, b, "k", 1e6); err != nil {
			t.Errorf("RetrievePartial after recovery: %v", err)
		}
	})
	sim.Run()
}

func TestServiceOutageRejectsCalls(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	s := New(sim, g)
	s.AddDepotsEverywhere()
	h := faultinject.NewHealth(sim, "ibp")
	s.SetHealth(h)
	a := g.Node("a1")
	sim.Spawn("app", func(p *simcore.Proc) {
		h.SetDown(true)
		if err := s.StoreSum(p, a, a, "k", 100, 0); !faultinject.Retryable(err) {
			t.Errorf("StoreSum during outage = %v, want retryable ErrUnavailable", err)
		}
		h.SetDown(false)
		if err := s.StoreSum(p, a, a, "k", 100, 0); err != nil {
			t.Errorf("StoreSum after outage: %v", err)
		}
	})
	sim.Run()
}

func TestReplicaForPrefersSameSiteLiveDepot(t *testing.T) {
	sim := simcore.New(1)
	g := replicaGrid(sim)
	s := New(sim, g)
	s.AddDepotsEverywhere()
	a1, a2, b1 := g.Node("a1"), g.Node("a2"), g.Node("b1")

	if got := s.ReplicaFor(a1); got != a2 {
		t.Fatalf("ReplicaFor(a1) = %v, want same-site a2", got)
	}
	a2.SetDown(true)
	if got := s.ReplicaFor(a1); got != b1 {
		t.Fatalf("ReplicaFor(a1) with a2 down = %v, want cross-site b1", got)
	}
	b1.SetDown(true)
	if got := s.ReplicaFor(a1); got != nil {
		t.Fatalf("ReplicaFor(a1) with everything down = %v, want nil", got)
	}
}
