package experiments

import (
	"reflect"
	"testing"

	"grads/internal/faultinject"
)

func smallChaosConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.N = 2000
	cfg.Particles = 100
	cfg.Width = 6
	return cfg
}

// TestRunChaosSpecRecoversFromCrash: an explicit schedule crashing a
// checkpoint-holding QR node mid-run plus an NWS outage completes via
// checkpoint recovery, with the injections and the detector firing visible
// in the result.
func TestRunChaosSpecRecoversFromCrash(t *testing.T) {
	events, err := faultinject.ParseSpec("crash@40-400:utk1;outage@10-30:nws")
	if err != nil {
		t.Fatal(err)
	}
	r, timeline, err := RunChaosSpec(Options{}, smallChaosConfig(), events)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatalf("run did not complete: %+v", r)
	}
	if r.Recoveries < 1 {
		t.Fatalf("recoveries=%d, want >= 1 (crash lands mid-run)", r.Recoveries)
	}
	if r.Injected != 2 || r.Recovered < 1 {
		t.Fatalf("injected=%d recovered=%d, want 2 injections and the crash healed", r.Injected, r.Recovered)
	}
	if r.Suspects < 1 {
		t.Fatalf("suspects=%d, want the detector to notice the crash", r.Suspects)
	}
	if timeline == "" {
		t.Fatal("no timeline rendered")
	}
}

// TestChaosDeterministic: the same seeded chaos scenario produces the exact
// same result struct twice.
func TestChaosDeterministic(t *testing.T) {
	cfg := smallChaosConfig()
	run := func() ChaosResult {
		r, err := chaosQR(Options{}, cfg, 900, nil)
		if err != nil {
			t.Fatal(err)
		}
		return *r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seeded chaos runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestChaosEMANResilientExecution: the EMAN workflow completes under
// generated faults at a hostile MTBF, re-placing crashed components.
func TestChaosEMANResilientExecution(t *testing.T) {
	cfg := smallChaosConfig()
	r, err := chaosEMAN(Options{}, cfg, 900)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed || r.Total <= 0 {
		t.Fatalf("EMAN chaos run did not complete: %+v", r)
	}
}
