package metasched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"grads/internal/cop"
	"grads/internal/topology"
)

// runningScan is the running-job list the way the broker used to build it
// every round: a scan of every job ever submitted.
func runningScan(s *Scheduler) []*Job {
	var out []*Job
	for _, j := range s.jobs {
		if j.state == JobRunning {
			out = append(out, j)
		}
	}
	return out
}

// TestRunningIndexMatchesScan drives seeded backfill streams with node
// crashes and recoveries (so jobs are admitted, requeued, quarantined,
// finished and fail) and, every tick and after every job completion,
// requires the running index to equal a full scan and the queue head's
// EASY window built from the index to equal the one built from the scan.
func TestRunningIndexMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := newRig(seed)
		rng := rand.New(rand.NewSource(seed))
		cfg := r.config(PolicyBackfill)
		cfg.StarveAfter = 120
		cfg.MaxRequeues = 3
		var s *Scheduler
		checks, windows := 0, 0
		check := func(when string) {
			checks++
			scan := runningScan(s)
			if !slices.Equal(s.runningJobs(), scan) {
				t.Fatalf("seed %d %s at t=%g: running index %v, scan %v",
					seed, when, r.sim.Now(), ids(s.runningJobs()), ids(scan))
			}
			now := r.sim.Now()
			hi := s.nextEligible(0, now)
			if hi < 0 {
				return
			}
			free := len(s.leases.Free(nil, r.grid.Nodes()))
			need := s.needWidth(s.queued[hi])
			shadow, extra := s.backfillWindow(now, free, need, s.runningJobs())
			refShadow, refExtra := s.backfillWindow(now, free, need, scan)
			if shadow != refShadow || extra != refExtra {
				t.Fatalf("seed %d %s at t=%g: window %g,%d from the index, %g,%d from the scan",
					seed, when, now, shadow, extra, refShadow, refExtra)
			}
			if len(scan) > 0 && free < need {
				windows++
			}
		}
		cfg.OnJobDone = func(*Job) { check("job done") }
		var err error
		if s, err = New(cfg); err != nil {
			t.Fatalf("new: %v", err)
		}
		for i := 0; i < 16; i++ {
			name, at := fmt.Sprintf("job%d", i), float64(rng.Intn(600))
			w := 1 + rng.Intn(8)
			bid, est := float64(rng.Intn(5)), float64(100+rng.Intn(900))
			if rng.Intn(2) == 0 {
				mustSubmit(t, s, farmSpec(name, at, 4+rng.Intn(12), w, 1, bid, est))
			} else {
				mustSubmit(t, s, qrSpec(name, at, 300+rng.Intn(300), w, 1, bid, est))
			}
		}
		nodes := r.grid.Nodes()
		for i := 0; i < 24; i++ {
			n := nodes[rng.Intn(len(nodes))].Name()
			at := float64(50 + rng.Intn(1500))
			r.sim.At(at, func() { r.grid.SetNodeDown(n, true) })
			r.sim.At(at+float64(50+rng.Intn(400)), func() { r.grid.SetNodeDown(n, false) })
		}
		for at := 2.5; at < 20000; at += cfg.Tick {
			r.sim.At(at, func() { check("tick") })
		}
		s.Start()
		r.sim.RunUntil(20000)
		requeues := 0
		for _, j := range s.jobs {
			requeues += j.requeues
		}
		if s.Remaining() != 0 || requeues == 0 || windows == 0 {
			t.Fatalf("seed %d: %d jobs left, %d requeues, %d checks with a blocked head; want a drained stream that requeued and blocked",
				seed, s.Remaining(), requeues, windows)
		}
		t.Logf("seed %d: %d checks, %d with a blocked head, %d admissions, %d requeues", seed, checks, windows, s.Admissions(), requeues)
	}
}

// TestPlacementMemoMatchesMapper places every queued job of the scan
// broker through the memo and directly through its mapper, before and
// after an admission changes the free pool: the nodes must be the same,
// and the memo must hold one entry per distinct mapper value.
func TestPlacementMemoMatchesMapper(t *testing.T) {
	s, _ := newScanBroker(t)
	s.pool = s.cfg.Grid.Nodes()
	avail := func(n *topology.Node) float64 { return 1 / float64(1+len(n.Name())%3) }
	for step := 0; step < 2; step++ {
		free := s.freeNodes()
		widths := map[cop.GreedyMapper]bool{}
		for _, j := range s.queued {
			got, want := s.placement(j, free, avail), j.cop.Mapper().Map(free, avail)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d job %d: memo placed %v, mapper %v", step, j.ID, got, want)
			}
			widths[j.cop.Mapper().(cop.GreedyMapper)] = true
		}
		if len(s.placed) != len(widths) {
			t.Fatalf("step %d: memo holds %d placements for %d mapper values", step, len(s.placed), len(widths))
		}
		// Free two more nodes: the next step's placements must see them.
		s.leases.Release(s.running[0].lease)
	}
}
