package grads

import (
	"strings"
	"testing"
)

func TestExperimentsList(t *testing.T) {
	names := Experiments()
	if len(names) < 8 {
		t.Fatalf("only %d experiments registered: %v", len(names), names)
	}
	for _, want := range []string{"fig3", "fig3-decisions", "fig4", "eman", "heuristics",
		"swap-policies", "opportunistic", "fault", "validation"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("experiment %q missing from %v", want, names)
		}
	}
	// Sorted.
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("experiment list not sorted: %v", names)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment(Options{}, "figure-9000"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentProducesReport(t *testing.T) {
	rep, err := RunExperiment(Options{}, "eman-dag")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "classesbymra") {
		t.Fatalf("eman-dag output missing components:\n%s", rep.Text)
	}
	if rep.Table != nil {
		t.Fatal("non-tabular experiment returned a table")
	}
}

func TestRunExperimentCSVWellFormed(t *testing.T) {
	rep, err := RunExperiment(Options{}, "fault")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(rep.Table.CSV()), "\n")
	if len(lines) < 4 {
		t.Fatalf("fault CSV has %d lines", len(lines))
	}
	cols := strings.Count(lines[0], ",")
	for i, l := range lines {
		if strings.Count(l, ",") != cols {
			t.Fatalf("line %d has wrong column count: %q", i, l)
		}
	}
}

// TestCSVMarksMatchReports: the [csv] mark -list prints for an entry agrees
// with whether that entry's Report carries a Table. The slow entries are
// left to the CLI runs of CI.
func TestCSVMarksMatchReports(t *testing.T) {
	slow := map[string]bool{"dagzoo": true, "dagzoo-smoke": true, "eman": true,
		"heuristics": true, "scale": true, "soak": true}
	for _, info := range Describe() {
		if slow[info.Name] {
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := RunExperiment(Options{}, info.Name)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Table != nil; got != info.HasCSV {
				t.Fatalf("report has table = %v, registry says HasCSV = %v", got, info.HasCSV)
			}
		})
	}
}
