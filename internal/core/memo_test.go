package core_test

import (
	"math/rand"
	"testing"

	"grads/internal/apps"
	"grads/internal/core"
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

// TestMemoizedSchedulesAreExact: a scheduler with the transfer memo and one
// without it produce bit-identical schedules under every heuristic, before
// and after the WAN state changes under the memo's feet.
func TestMemoizedSchedulesAreExact(t *testing.T) {
	grid, w := macroWorkflow(t)
	nodes := grid.Nodes()
	cached := core.NewScheduler(grid, nil)
	plain := core.NewScheduler(grid, nil)
	plain.Cache = nil

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
				if got.Assignments[i] != want.Assignments[i] {
					t.Fatalf("round %d %s: component %d %+v memoized, %+v plain",
						round, h, i, got.Assignments[i], want.Assignments[i])
				}
			}
		}
	}
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
