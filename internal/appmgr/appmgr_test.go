package appmgr

import (
	"testing"

	"grads/internal/apps"
	"grads/internal/binder"
	"grads/internal/gis"
	"grads/internal/ibp"
	"grads/internal/simcore"
	"grads/internal/srs"
	"grads/internal/topology"
)

type rig struct {
	sim  *simcore.Sim
	grid *topology.Grid
	rss  *srs.RSS
	mgr  *Manager
	qr   *apps.QR
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	sim := simcore.New(1)
	grid := topology.QRTestbed(sim)
	st := ibp.New(sim, grid)
	st.AddDepotsEverywhere()
	g := gis.New(sim, grid)
	g.RegisterSoftwareEverywhere(binder.LocalBinderPkg, "/opt/grads/binder")
	for _, lib := range []string{"scalapack", "blas", "srs", "autopilot"} {
		g.RegisterSoftwareEverywhere(lib, "/opt/"+lib)
	}
	b := binder.New(sim, g)
	rss := srs.NewRSS(sim, st, "qr")
	qr, err := apps.NewQR(grid, rss, b, n, 100)
	if err != nil {
		t.Fatalf("NewQR: %v", err)
	}
	return &rig{sim: sim, grid: grid, rss: rss, mgr: New(sim, grid, b, nil), qr: qr}
}

func TestExecuteSingleSegment(t *testing.T) {
	r := newRig(t, 1000)
	var rep *Report
	r.sim.Spawn("user", func(p *simcore.Proc) {
		got, err := r.mgr.Execute(p, r.qr, r.grid.Nodes())
		if err != nil {
			t.Errorf("Execute: %v", err)
			return
		}
		rep = got
	})
	r.sim.Run()
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Runs != 1 || rep.Migrated {
		t.Fatalf("report %+v, want single unmigrated run", rep)
	}
	for _, phase := range []string{PhaseResourceSelection, PhasePerfModeling, PhaseGridOverhead, PhaseAppStart, PhaseAppDuration} {
		if rep.Sum(phase, 1) <= 0 {
			t.Fatalf("phase %q missing from report: %+v", phase, rep.Phases)
		}
	}
	if rep.Sum(PhaseCkptWrite, 0) != 0 || rep.Sum(PhaseCkptRead, 0) != 0 {
		t.Fatal("checkpoint phases recorded without a migration")
	}
	if rep.Total <= rep.Sum(PhaseAppDuration, 1) {
		t.Fatal("total must include overheads")
	}
}

func TestExecuteWithStopAndRestart(t *testing.T) {
	r := newRig(t, 4000)
	uiuc := r.grid.Site("UIUC").Nodes()
	// Force a stop mid-run-1 (the segment starts after ~25s of overheads)
	// and point the restart at UIUC.
	r.sim.Schedule(40, func() {
		r.mgr.NextNodes = uiuc
		r.rss.RequestStop(4)
	})
	var rep *Report
	r.sim.Spawn("user", func(p *simcore.Proc) {
		got, err := r.mgr.Execute(p, r.qr, r.grid.Nodes())
		if err != nil {
			t.Errorf("Execute: %v", err)
			return
		}
		// Clear the stop for run 2 happens via RSS ClearStop by the
		// experiment; here the manager restarts immediately, so clear in
		// the stop scheduling above instead.
		rep = got
	})
	// ClearStop must happen between segments; hook it on the manager loop
	// via a monitor process that clears once all ranks stopped.
	r.sim.Spawn("rss-clear", func(p *simcore.Proc) {
		if err := r.rss.WaitAllStopped(p); err != nil {
			return
		}
		r.rss.ClearStop()
	})
	r.sim.Run()
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Runs != 2 || !rep.Migrated {
		t.Fatalf("runs=%d migrated=%v, want a 2-segment migrated execution", rep.Runs, rep.Migrated)
	}
	if rep.Sum(PhaseCkptWrite, 1) <= 0 {
		t.Fatal("run 1 should record checkpoint writing")
	}
	if rep.Sum(PhaseCkptRead, 2) <= 0 {
		t.Fatal("run 2 should record checkpoint reading")
	}
	if rep.Sum(PhaseGridOverhead, 2) <= 0 || rep.Sum(PhaseAppStart, 2) <= 0 {
		t.Fatal("run 2 overhead phases missing")
	}
	// Checkpoint reading crosses the WAN: it should dominate writing.
	if rep.Sum(PhaseCkptRead, 2) < 5*rep.Sum(PhaseCkptWrite, 1) {
		t.Fatalf("read %v not dominating write %v", rep.Sum(PhaseCkptRead, 2), rep.Sum(PhaseCkptWrite, 1))
	}
}

func TestReportSum(t *testing.T) {
	rep := &Report{Phases: []PhaseRecord{
		{Run: 1, Name: "x", Duration: 2},
		{Run: 2, Name: "x", Duration: 3},
		{Run: 1, Name: "y", Duration: 5},
	}}
	if rep.Sum("x", 0) != 5 || rep.Sum("x", 2) != 3 || rep.Sum("z", 0) != 0 {
		t.Fatal("Sum filters wrong")
	}
}
