package experiments

import (
	"testing"

	"grads/internal/listsched"
)

// TestDagZooLeaderboard runs the published configuration and pins the
// acceptance property: on the wide fan-out high-CCR class the
// communication-aware HEFT beats the paper's min-min under both policies.
// Every schedule inside RunDagZoo already passes the validity harness.
func TestDagZooLeaderboard(t *testing.T) {
	classes, err := RunDagZoo(Options{}, DefaultDagZooConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != len(defaultDagZooSuite) {
		t.Fatalf("%d classes, want %d", len(classes), len(defaultDagZooSuite))
	}
	byLabel := map[string]*DagZooClass{}
	for i := range classes {
		byLabel[classes[i].Label] = &classes[i]
		for _, cell := range classes[i].Cells {
			if cell.MeanMk <= 0 {
				t.Errorf("%s %s/%s: mean makespan %v", classes[i].Label, cell.Heuristic, cell.Policy, cell.MeanMk)
			}
			if cell.MeanSLR < 0.99 {
				t.Errorf("%s %s/%s: SLR %v below the critical-path lower bound",
					classes[i].Label, cell.Heuristic, cell.Policy, cell.MeanSLR)
			}
			if cell.MeanUtil <= 0 || cell.MeanUtil > 1 {
				t.Errorf("%s %s/%s: utilization %v", classes[i].Label, cell.Heuristic, cell.Policy, cell.MeanUtil)
			}
		}
	}
	for _, label := range []string{"fanout-hi", "fanout-lo"} {
		cls, ok := byLabel[label]
		if !ok {
			t.Fatalf("class %s missing", label)
		}
		for _, policy := range dagZooPolicies {
			heft, ok1 := cls.Mean(listsched.HEFT, policy)
			minmin, ok2 := cls.Mean(listsched.MinMinAdapter, policy)
			if !ok1 || !ok2 {
				t.Fatalf("%s: missing heft/min-min cells", label)
			}
			if heft.MeanMk >= minmin.MeanMk {
				t.Errorf("%s/%s: HEFT mean makespan %v does not beat min-min %v",
					label, policy, heft.MeanMk, minmin.MeanMk)
			}
		}
	}
}

// TestDagZooSmokeDeterministic: the CI smoke case is byte-identical across
// runs in one process — the cheap local version of the determinism matrix.
func TestDagZooSmokeDeterministic(t *testing.T) {
	a, err := RunDagZooSmoke(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDagZooSmoke(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("smoke output differs between identical runs")
	}
}

// TestRunZooReport exercises the -zoo CLI path over every class and both an
// unknown heuristic and a malformed spec error.
func TestRunZooReport(t *testing.T) {
	out, err := RunZoo(Options{Seed: 3}, "chain:n=6;fanout:width=6,ccr=2;diamond:width=3,layers=2;layered:layers=3,width=4;eman:n=100,width=4", "cpop")
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Fatal("empty report")
	}
	if _, err := RunZoo(Options{Seed: 1}, "chain", "nope"); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
	if _, err := RunZoo(Options{Seed: 1}, "ring:n=4", "heft"); err == nil {
		t.Fatal("bad spec accepted")
	}
}
