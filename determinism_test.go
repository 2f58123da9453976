package grads

import (
	"bytes"
	"sync"
	"testing"

	"grads/internal/telemetry"
)

// TestDeterminism runs the same seeded experiment twice with a JSONL sink
// attached and requires the two telemetry streams to be byte-identical —
// the property the CI determinism job checks end-to-end through the
// gradsim binary.
func TestDeterminism(t *testing.T) {
	run := func() []byte {
		var out bytes.Buffer
		tel := telemetry.New()
		tel.AddSink(telemetry.NewJSONL(&out))
		if _, err := RunExperiment(Options{Telemetry: tel}, "fig4"); err != nil {
			t.Fatal(err)
		}
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	a := run()
	b := run()
	if len(a) == 0 {
		t.Fatal("experiment emitted no telemetry")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("seeded runs diverged: %d vs %d bytes", len(a), len(b))
	}
}

// TestConcurrentRunsAreIsolated runs two experiments at once, each with its
// own telemetry hub and its own Options, and requires each trace to equal
// the same run done alone: no run configuration or state is shared between
// calls. Under -race it also checks that the runs touch no common memory.
func TestConcurrentRunsAreIsolated(t *testing.T) {
	type run struct {
		name string
		opts Options
	}
	runs := []run{
		{"fig4", Options{ReferenceSolver: true}},
		{"chaos", Options{Seed: 7}},
	}
	trace := func(r run) ([]byte, string) {
		var out bytes.Buffer
		tel := telemetry.New()
		tel.AddSink(telemetry.NewJSONL(&out))
		r.opts.Telemetry = tel
		rep, err := RunExperiment(r.opts, r.name)
		if err != nil {
			t.Error(err)
		}
		if err := tel.Close(); err != nil {
			t.Error(err)
		}
		return out.Bytes(), rep.Text
	}

	alone := make([][]byte, len(runs))
	aloneText := make([]string, len(runs))
	for i, r := range runs {
		alone[i], aloneText[i] = trace(r)
		if len(alone[i]) == 0 {
			t.Fatalf("%s emitted no telemetry", r.name)
		}
	}
	together := make([][]byte, len(runs))
	togetherText := make([]string, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], togetherText[i] = trace(r)
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if !bytes.Equal(alone[i], together[i]) {
			t.Errorf("%s: concurrent trace differs from the run alone: %d vs %d bytes",
				r.name, len(together[i]), len(alone[i]))
		}
		if aloneText[i] != togetherText[i] {
			t.Errorf("%s: concurrent report differs from the run alone", r.name)
		}
	}
}
