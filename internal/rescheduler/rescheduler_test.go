package rescheduler

import (
	"math"
	"testing"

	"grads/internal/simcore"
	"grads/internal/topology"
)

// fakeApp is an Estimator whose remaining time is flops / aggregate
// lock-step rate (the slowest node paces a tightly coupled app).
type fakeApp struct {
	remainingFlops float64
	ckptBytes      float64
	restart        float64
}

func (a *fakeApp) RemainingTime(nodes []*topology.Node, avail func(*topology.Node) float64) float64 {
	if len(nodes) == 0 {
		return math.Inf(1)
	}
	slowest := math.Inf(1)
	for _, n := range nodes {
		r := n.Spec.Flops() * avail(n)
		if r < slowest {
			slowest = r
		}
	}
	return a.remainingFlops / (slowest * float64(len(nodes)))
}

func (a *fakeApp) CheckpointBytes() float64 { return a.ckptBytes }
func (a *fakeApp) RestartOverhead() float64 { return a.restart }

func qrGrid() (*simcore.Sim, *topology.Grid) {
	sim := simcore.New(1)
	return sim, topology.QRTestbed(sim)
}

func TestEvaluateMigratesWhenLoaded(t *testing.T) {
	sim, g := qrGrid()
	_ = sim
	r := New(g, nil)
	// Artificial load on utk1: availability 1/3 (2 competing processes).
	g.Node("utk1").CPU.SetExternalLoad(2)
	app := &fakeApp{remainingFlops: 4e12, ckptBytes: 1e8, restart: 60}
	utk := g.Site("UTK").Nodes()
	uiuc := g.Site("UIUC").Nodes()
	d := r.Evaluate(app, utk, [][]*topology.Node{uiuc})
	if !d.Migrate {
		t.Fatalf("should migrate away from loaded UTK: %+v", d)
	}
	if d.TargetRemaining >= d.CurrentRemaining {
		t.Fatalf("target %v not faster than current %v", d.TargetRemaining, d.CurrentRemaining)
	}
	if d.MigrationCost <= 0 {
		t.Fatal("migration cost not estimated")
	}
}

func TestEvaluateStaysWhenUnloaded(t *testing.T) {
	_, g := qrGrid()
	r := New(g, nil)
	app := &fakeApp{remainingFlops: 4e12, ckptBytes: 5e8, restart: 60}
	utk := g.Site("UTK").Nodes()
	uiuc := g.Site("UIUC").Nodes()
	d := r.Evaluate(app, utk, [][]*topology.Node{uiuc})
	if d.Migrate {
		t.Fatalf("unloaded UTK (faster aggregate) should win: %+v", d)
	}
}

func TestWorstCaseCostBlocksMarginalMigration(t *testing.T) {
	_, g := qrGrid()
	g.Node("utk1").CPU.SetExternalLoad(2)
	utk := g.Site("UTK").Nodes()
	uiuc := g.Site("UIUC").Nodes()
	// Tune remaining work so the true benefit is real but below 900s.
	app := &fakeApp{remainingFlops: 2.5e11, ckptBytes: 5e8, restart: 60}

	honest := New(g, nil)
	dHonest := honest.Evaluate(app, utk, [][]*topology.Node{uiuc})

	pessimist := New(g, nil)
	pessimist.WorstCaseCost = 900
	dPess := pessimist.Evaluate(app, utk, [][]*topology.Node{uiuc})

	if !dHonest.Migrate {
		t.Fatalf("honest estimate should migrate: %+v", dHonest)
	}
	if dPess.Migrate {
		t.Fatalf("worst-case 900s should block this marginal migration: %+v", dPess)
	}
	if dPess.MigrationCost != 900 {
		t.Fatalf("worst-case cost = %v", dPess.MigrationCost)
	}
}

func TestForcedModes(t *testing.T) {
	_, g := qrGrid()
	app := &fakeApp{remainingFlops: 4e12, ckptBytes: 1e8}
	utk := g.Site("UTK").Nodes()
	uiuc := g.Site("UIUC").Nodes()

	r := New(g, nil)
	r.Mode = ModeForceMigrate
	if d := r.Evaluate(app, utk, [][]*topology.Node{uiuc}); !d.Migrate {
		t.Fatal("ModeForceMigrate must migrate")
	}
	r.Mode = ModeForceStay
	g.Node("utk1").CPU.SetExternalLoad(10)
	if d := r.Evaluate(app, utk, [][]*topology.Node{uiuc}); d.Migrate {
		t.Fatal("ModeForceStay must stay")
	}
}

func TestEvaluateNoCandidates(t *testing.T) {
	_, g := qrGrid()
	r := New(g, nil)
	app := &fakeApp{remainingFlops: 1e12}
	utk := g.Site("UTK").Nodes()
	d := r.Evaluate(app, utk, nil)
	if d.Migrate || d.Target != nil {
		t.Fatalf("no candidates should mean stay: %+v", d)
	}
	// Candidate identical to current is skipped.
	d = r.Evaluate(app, utk, [][]*topology.Node{utk})
	if d.Target != nil {
		t.Fatalf("current set offered as candidate was not skipped: %+v", d)
	}
}

func TestMigrationCostDominatedByWANRead(t *testing.T) {
	_, g := qrGrid()
	r := New(g, nil)
	app := &fakeApp{ckptBytes: 512e6, restart: 30} // N=8000 doubles: 512 MB
	utk := g.Site("UTK").Nodes()
	uiuc := g.Site("UIUC").Nodes()
	cost := r.EstimateMigrationCost(app, utk, uiuc)
	wan := 512e6 / topology.Internet10
	if cost < wan {
		t.Fatalf("cost %v less than WAN transfer alone %v", cost, wan)
	}
	if cost > wan*1.5+30+60 {
		t.Fatalf("cost %v implausibly high vs WAN %v", cost, wan)
	}
}

func TestSiteCandidates(t *testing.T) {
	_, g := qrGrid()
	sets := SiteCandidates(g.Nodes())
	if len(sets) != 2 {
		t.Fatalf("got %d candidate sets, want 2", len(sets))
	}
	if sets[0][0].Site().Name != "UIUC" || sets[1][0].Site().Name != "UTK" {
		t.Fatalf("sets not sorted by site: %v %v", sets[0][0].Site().Name, sets[1][0].Site().Name)
	}
	if len(sets[0]) != 8 || len(sets[1]) != 4 {
		t.Fatalf("set sizes %d/%d, want 8/4", len(sets[0]), len(sets[1]))
	}
}

func TestDaemonMigrationOnRequest(t *testing.T) {
	sim, g := qrGrid()
	r := New(g, nil)
	g.Node("utk1").CPU.SetExternalLoad(2)
	app := &fakeApp{remainingFlops: 4e12, ckptBytes: 1e8, restart: 60}
	utk := g.Site("UTK").Nodes()
	uiuc := g.Site("UIUC").Nodes()

	migrated := false
	d := NewDaemon(sim, r, uiuc) // UIUC free
	d.Register(&ManagedApp{
		Name:      "qr",
		App:       app,
		Current:   utk,
		OnMigrate: func(Decision) bool { migrated = true; return true },
	})
	dec := d.RequestMigration("qr")
	if !dec.Migrate || !migrated {
		t.Fatalf("daemon did not migrate: %+v", dec)
	}
	reqs, migs := d.requests, d.migrations
	if reqs != 1 || migs != 1 {
		t.Fatalf("stats = %d reqs, %d migs", reqs, migs)
	}
	// The pool now holds the freed UTK nodes, not the UIUC ones.
	for _, n := range d.pool {
		if n.Site().Name == "UIUC" {
			t.Fatalf("UIUC node %s still in pool after migration", n.Name())
		}
	}
	if dec2 := d.RequestMigration("ghost"); dec2.Migrate {
		t.Fatal("unknown app migrated")
	}
}

func TestDaemonOpportunistic(t *testing.T) {
	sim, g := qrGrid()
	r := New(g, nil)
	utk := g.Site("UTK").Nodes()
	uiuc := g.Site("UIUC").Nodes()

	// App B runs on slow UIUC; app A occupies fast UTK. When A completes,
	// the daemon should opportunistically move B onto the freed UTK nodes.
	appA := &fakeApp{remainingFlops: 0}
	appB := &fakeApp{remainingFlops: 8e12, ckptBytes: 1e7, restart: 30}
	migratedTo := ""
	d := NewDaemon(sim, r, nil)
	d.Register(&ManagedApp{Name: "a", App: appA, Current: utk})
	d.Register(&ManagedApp{Name: "b", App: appB, Current: uiuc,
		OnMigrate: func(dec Decision) bool {
			migratedTo = dec.Target[0].Site().Name
			return true
		}})
	d.AppCompleted("a")
	if migratedTo != "UTK" {
		t.Fatalf("opportunistic migration went to %q, want UTK", migratedTo)
	}
	opp, migs := d.opportunistic, d.migrations
	if opp != 1 || migs != 1 {
		t.Fatalf("stats: opportunistic=%d migrations=%d", opp, migs)
	}
}
