package chaossoak

import (
	"math/rand"
	"strings"
	"testing"

	"grads/internal/binder"
	"grads/internal/gis"
	"grads/internal/ibp"
	"grads/internal/metasched"
	"grads/internal/nws"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// sweepJobs is the ledger size the sweep is measured at: a soak stream's
// worth of submissions, the scale at which the sweep used to copy the job
// slice and build a state map on every tick.
const sweepJobs = 250

// newSweepChecker submits a fault-free soak stream of sweepJobs jobs to a
// backfill broker, runs it part of the way so the ledger holds pending,
// running and finished jobs and live leases, and returns a checker over it
// that expects submitted jobs.
func newSweepChecker(tb testing.TB, submitted int) (*checker, *simcore.Sim) {
	tb.Helper()
	sim := simcore.New(1)
	grid := topology.QRTestbed(sim)
	g := gis.New(sim, grid)
	// Install paths are opaque to the GIS; each package's name serves.
	for _, pkg := range []string{binder.LocalBinderPkg, "scalapack", "blas", "srs", "autopilot", "mpi"} {
		g.RegisterSoftwareEverywhere(pkg, pkg)
	}
	st := ibp.New(sim, grid)
	st.AddDepotsEverywhere()
	sched, err := metasched.New(metasched.Config{
		Sim: sim, Grid: grid, GIS: g, Storage: st, Binder: binder.New(sim, g),
		Weather: nws.Start(sim, grid, 10),
		Policy:  metasched.PolicyBackfill,
		Tick:    5,
	})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Jobs, cfg.Horizon = sweepJobs, 4000
	for _, s := range buildStream(rand.New(rand.NewSource(cfg.Seed+3)), cfg) {
		if _, err := sched.Submit(s); err != nil {
			tb.Fatal(err)
		}
	}
	sched.Start()
	sim.RunUntil(1500)

	counts := sched.StateCounts()
	if counts[metasched.JobPending] == 0 || counts[metasched.JobRunning] == 0 || counts[metasched.JobDone] == 0 {
		tb.Fatalf("fixture ledger is not mixed: %s", formatCounts(counts))
	}
	return newChecker(sim, sched, submitted), sim
}

// TestSweepCatchesBrokenLedger: the sweep recounts job states from scratch,
// so a submitted count that disagrees with the scheduler's jobs by one is a
// job-conservation violation, reported with every state's count by name.
func TestSweepCatchesBrokenLedger(t *testing.T) {
	chk, sim := newSweepChecker(t, sweepJobs+1)
	chk.sweep(sim.Now())
	var found bool
	for _, v := range chk.violations {
		if v.Invariant != "job-conservation" || !strings.Contains(v.Detail, "state counts sum to") {
			continue
		}
		found = true
		for _, st := range []string{"pending=", " queued=", " running=", " done=", " failed=", " quarantined="} {
			if !strings.Contains(v.Detail, st) {
				t.Errorf("detail %q lacks %q", v.Detail, st)
			}
		}
	}
	if !found {
		t.Fatalf("off-by-one ledger passed the sweep: %+v", chk.violations)
	}
}

// TestSweepAllocatesNothing: on a clean ledger the sweep finds nothing and
// allocates nothing, so a soak can check every few virtual seconds for free.
func TestSweepAllocatesNothing(t *testing.T) {
	chk, sim := newSweepChecker(t, sweepJobs)
	if n := testing.AllocsPerRun(100, func() { chk.sweep(sim.Now()) }); n != 0 {
		t.Errorf("sweep allocates %v times per call, want 0", n)
	}
	if len(chk.violations) != 0 {
		t.Fatalf("clean ledger violated: %+v", chk.violations)
	}
}

// BenchmarkSoakSweep is one invariant sweep over a mid-run ledger of
// sweepJobs jobs.
func BenchmarkSoakSweep(b *testing.B) {
	chk, sim := newSweepChecker(b, sweepJobs)
	now := sim.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		chk.sweep(now)
	}
}
