package core_test

import (
	"math"
	"math/rand"
	"testing"

	"grads/internal/apps"
	"grads/internal/core"
	"grads/internal/listsched"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// macroWorkflow is a seeded 5-layer, 10-wide random DAG on the MacroGrid.
func macroWorkflow(tb testing.TB) (*topology.Grid, *core.Workflow) {
	tb.Helper()
	grid := topology.MacroGrid(simcore.New(1))
	w, err := apps.RandomWorkflow(rand.New(rand.NewSource(7)), 5, 10, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return grid, w
}

// eachWANRound calls check three times on the same grid: as built, after
// three WAN links take heavy background load, and after the same links are
// degraded to 2% capacity. Each change must move StateVersion, so a memo
// keyed on it sees the network change under its feet.
func eachWANRound(t *testing.T, grid *topology.Grid, check func(round int)) {
	t.Helper()
	wans := [][2]string{{"UTK", "UIUC"}, {"UCSD", "UH"}, {"UTK", "UH"}}
	changes := []func(){
		func() {},
		func() {
			for _, p := range wans {
				grid.Net.SetBackground(grid.WAN(p[0], p[1]), 0.9*topology.Internet10)
			}
		},
		func() {
			for _, p := range wans {
				grid.Net.SetCapacityFactor(grid.WAN(p[0], p[1]), 0.02)
			}
		},
	}
	for round, change := range changes {
		before := grid.Net.StateVersion()
		change()
		if round > 0 && grid.Net.StateVersion() == before {
			t.Fatalf("round %d: the WAN change did not move StateVersion", round)
		}
		check(round)
	}
}

// sameBits reports whether two assignments name the same node and carry the
// same start and finish bit for bit.
func sameBits(a, b core.Assignment) bool {
	return a.Node == b.Node &&
		math.Float64bits(a.Start) == math.Float64bits(b.Start) &&
		math.Float64bits(a.Finish) == math.Float64bits(b.Finish)
}

// TestMemoizedSchedulesAreExact: a scheduler with the transfer memo and one
// without it produce bit-identical schedules under every heuristic, before
// and after the WAN state changes under the memo's feet.
func TestMemoizedSchedulesAreExact(t *testing.T) {
	grid, w := macroWorkflow(t)
	nodes := grid.Nodes()
	cached := core.NewScheduler(grid, nil)
	plain := core.NewScheduler(grid, nil)
	plain.Cache = nil

	eachWANRound(t, grid, func(round int) {
		for _, h := range core.Heuristics {
			got, err := cached.ScheduleWith(h, w, nodes)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.ScheduleWith(h, w, nodes)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Assignments {
				if !sameBits(got.Assignments[i], want.Assignments[i]) {
					t.Fatalf("round %d %s: component %d %+v memoized, %+v plain",
						round, h, i, got.Assignments[i], want.Assignments[i])
				}
			}
		}
	})
	if hits, _, _ := cached.Cache.Stats(); hits == 0 {
		t.Fatal("the memo never hit: the test exercised nothing")
	}
}

// TestMemoizedTransferTimesAreExact: for every ordered pair of distinct
// MacroGrid nodes and a spread of byte counts (down to the smallest
// subnormal), the memoized TransferTime equals the uncached estimate bit for
// bit in every WAN round. The memo is keyed by site pair, so most of these
// lookups hit an entry stored for a different node pair and byte count.
func TestMemoizedTransferTimesAreExact(t *testing.T) {
	grid := topology.MacroGrid(simcore.New(1))
	nodes := grid.Nodes()
	cached := core.NewScheduler(grid, nil)
	plain := core.NewScheduler(grid, nil)
	plain.Cache = nil
	sizes := []float64{1, 1e6, 2e6, 3.7e9, 5e-324}

	eachWANRound(t, grid, func(round int) {
		for _, a := range nodes {
			for _, b := range nodes {
				if a == b {
					continue
				}
				for _, bytes := range sizes {
					got, want := cached.TransferTime(a, b, bytes), plain.TransferTime(a, b, bytes)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("round %d: %s->%s %g bytes: %v memoized, %v plain",
							round, a.Name(), b.Name(), bytes, got, want)
					}
				}
			}
		}
	})
	hits, misses, _ := cached.Cache.Stats()
	if sites := len(grid.Sites()); misses != uint64(3*sites*sites) {
		t.Fatalf("%d misses, want one per ordered site pair per round (%d)", misses, 3*sites*sites)
	}
	if hits == 0 {
		t.Fatal("the memo never hit: the test exercised nothing")
	}
}

// TestMemoizedListSchedulesAreExact: HEFT, CPOP and sufferage-list, whose
// rank and ready-time models read TransferTime, schedule identically with
// and without the memo in every WAN round.
func TestMemoizedListSchedulesAreExact(t *testing.T) {
	grid, w := macroWorkflow(t)
	nodes := grid.Nodes()
	cached := core.NewScheduler(grid, nil)
	plain := core.NewScheduler(grid, nil)
	plain.Cache = nil

	eachWANRound(t, grid, func(round int) {
		for _, name := range []string{listsched.HEFT, listsched.CPOP, listsched.SufferageList} {
			h, err := listsched.New(name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := h.Schedule(listsched.NewContext(cached, w, nodes))
			if err != nil {
				t.Fatal(err)
			}
			want, err := h.Schedule(listsched.NewContext(plain, w, nodes))
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) {
				t.Fatalf("round %d %s: makespan %v memoized, %v plain", round, name, got.Makespan, want.Makespan)
			}
			for i := range want.Assignments {
				if !sameBits(got.Assignments[i], want.Assignments[i]) {
					t.Fatalf("round %d %s: component %d %+v memoized, %+v plain",
						round, name, i, got.Assignments[i], want.Assignments[i])
				}
			}
		}
	})
	if hits, _, _ := cached.Cache.Stats(); hits == 0 {
		t.Fatal("the memo never hit: the test exercised nothing")
	}
}

// BenchmarkRankWarm ranks every (component, node) pair of a scheduled
// workflow against its final assignment: the rank path with every transfer
// already memoized. It must not allocate.
func BenchmarkRankWarm(b *testing.B) {
	grid, w := macroWorkflow(b)
	nodes := grid.Nodes()
	s := core.NewScheduler(grid, nil)
	sched, err := s.ScheduleWith(core.MinMin, w, nodes)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci := 0; ci < w.Len(); ci++ {
			for _, r := range nodes {
				s.Rank(w, ci, r, sched.Assignments)
			}
		}
	}
}

// BenchmarkScheduleCold plans the 5x10 workflow with min-min on a fresh
// scheduler each iteration, so every route's latency and rate is estimated
// anew: the cost of one cold planning pass, transfer memo included.
func BenchmarkScheduleCold(b *testing.B) {
	grid, w := macroWorkflow(b)
	nodes := grid.Nodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewScheduler(grid, nil).ScheduleWith(core.MinMin, w, nodes); err != nil {
			b.Fatal(err)
		}
	}
}
