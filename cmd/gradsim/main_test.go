package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownExperimentCreatesNoTraceFiles: rejected input — an unknown
// experiment, a malformed spec, route or heuristic, a -csv target without a
// CSV form, a shard count below 1, or a flag the chosen run mode would
// ignore (a second run mode, -heuristic without -zoo, -route without
// -arrivals, -csv without -exp, -shards N≠1 outside scale-smoke) — fails with a non-zero status before either trace sink is
// opened, so no file is left behind.
func TestUnknownExperimentCreatesNoTraceFiles(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // in stderr
	}{
		{"unknown-exp", []string{"-exp", "no-such-experiment"}, "no-such-experiment"},
		{"bad-faults", []string{"-faults", "bogus@1:x"}, "bogus"},
		{"bad-zoo", []string{"-zoo", "nosuch"}, "nosuch"},
		{"bad-route", []string{"-arrivals", "poisson@0-10:rate=0.1", "-route", "nosuch"}, "nosuch"},
		{"bad-heuristic", []string{"-zoo", "chain", "-heuristic", "nosuch"}, "nosuch"},
		{"bad-jobs", []string{"-jobs", "qr"}, "qr"},
		{"csv-all", []string{"-exp", "all", "-csv"}, "no CSV form"},
		{"csv-untabular", []string{"-exp", "fig3", "-csv"}, "no CSV form"},
		{"shards-zero", []string{"-shards", "0"}, "-shards 0"},
		{"shards-negative", []string{"-exp", "scale-smoke", "-shards", "-3"}, "-shards -3"},
		{"zoo-and-jobs", []string{"-zoo", "chain", "-jobs", "qr@0:n=100,w=4"}, "-jobs and -zoo"},
		{"exp-and-faults", []string{"-exp", "fig3", "-faults", "crash@50:utk1"}, "-exp and -faults"},
		{"exp-and-arrivals", []string{"-exp", "all", "-arrivals", "poisson@0-10:rate=0.1"}, "-exp and -arrivals"},
		{"heuristic-without-zoo", []string{"-exp", "fig3", "-heuristic", "nosuch"}, "-heuristic applies only to -zoo"},
		{"route-without-arrivals", []string{"-jobs", "qr@0:n=100,w=4", "-route", "rr"}, "-route applies only to -arrivals"},
		{"csv-with-zoo", []string{"-zoo", "chain", "-csv"}, "-csv applies only to -exp"},
		{"csv-with-faults", []string{"-faults", "crash@50:utk1", "-csv"}, "-csv applies only to -exp"},
		{"csv-with-jobs", []string{"-jobs", "qr@0:n=100,w=4", "-csv"}, "-csv applies only to -exp"},
		{"csv-with-arrivals", []string{"-arrivals", "poisson@0-10:rate=0.1", "-csv"}, "-csv applies only to -exp"},
		{"shards-unsharded-exp", []string{"-exp", "fig4", "-shards", "4"}, "-shards 4 applies only"},
		{"shards-with-zoo", []string{"-zoo", "chain", "-shards", "2"}, "-shards 2 applies only"},
		{"shards-with-faults", []string{"-faults", "crash@50:utk1", "-shards", "4"}, "-shards 4 applies only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			args := append(tc.args,
				"-trace", filepath.Join(dir, "out.json"),
				"-trace-jsonl", filepath.Join(dir, "out.jsonl"))
			if code := run(args, &stdout, &stderr); code == 0 {
				t.Fatal("rejected input exited 0")
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("rejected input wrote stdout %q", stdout.String())
			}
			expectEmptyDir(t, dir)
		})
	}
}

// expectEmptyDir fails the test for every entry left in dir.
func expectEmptyDir(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind %s", e.Name())
	}
}

// TestFailedTraceCreateRemovesEarlierOutput: when the second trace file
// cannot be created, the first one, already created, is closed and removed.
func TestFailedTraceCreateRemovesEarlierOutput(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "eman-dag",
		"-trace", filepath.Join(dir, "a.json"),
		"-trace-jsonl", filepath.Join(dir, "nodir", "b.jsonl")}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "nodir") {
		t.Fatalf("stderr %q does not name the failed path", stderr.String())
	}
	expectEmptyDir(t, dir)
}

// TestCSVPrintsTable: -csv prints the report's table, header first.
func TestCSVPrintsTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig4", "-csv"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "iteration,t_with_swap_s,t_no_swap_s\n") {
		t.Fatalf("fig4 CSV starts %.60q", stdout.String())
	}
}

// TestFaultSpecSpacing: spaces around spec tokens are not part of them, so
// a spaced -faults target injects the same fault as the unspaced one and
// the reports match byte for byte.
func TestFaultSpecSpacing(t *testing.T) {
	report := func(faults string) string {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-faults", faults}, &stdout, &stderr); code != 0 {
			t.Fatalf("-faults %q: exit %d: %s", faults, code, stderr.String())
		}
		return stdout.String()
	}
	if spaced, plain := report("crash@50: utk1"), report("crash@50:utk1"); spaced != plain {
		t.Fatalf("spaced target changed the report:\n%s\nwant\n%s", spaced, plain)
	}
}
