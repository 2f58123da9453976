package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownExperimentCreatesNoTraceFiles: an unknown -exp fails with a
// non-zero status before either trace sink is opened, so no file is left
// behind.
func TestUnknownExperimentCreatesNoTraceFiles(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-exp", "no-such-experiment",
		"-trace", filepath.Join(dir, "out.json"),
		"-trace-jsonl", filepath.Join(dir, "out.jsonl"),
	}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	if !strings.Contains(stderr.String(), "no-such-experiment") {
		t.Fatalf("stderr %q does not name the experiment", stderr.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind %s", e.Name())
	}
}
