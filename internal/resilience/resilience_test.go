package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"grads/internal/faultinject"
	"grads/internal/simcore"
	"grads/internal/topology"
)

func TestBackoffGrowthAndCeiling(t *testing.T) {
	po := Policy{MaxAttempts: 10, BaseDelay: 0.5, MaxDelay: 8, Multiplier: 2}
	wants := []float64{0.5, 1, 2, 4, 8, 8, 8}
	for i, want := range wants {
		if got := po.Backoff(i+1, nil); got != want {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, want)
		}
	}
	if got := po.Backoff(0, nil); got != 0.5 {
		t.Fatalf("Backoff clamps attempt to 1, got %v", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	po := Policy{MaxAttempts: 5, BaseDelay: 1, MaxDelay: 8, Multiplier: 2, Jitter: 0.25}
	rng := rand.New(rand.NewSource(3))
	for attempt := 1; attempt <= 5; attempt++ {
		nominal := po.Backoff(attempt, nil)
		for i := 0; i < 100; i++ {
			d := po.Backoff(attempt, rng)
			if d > nominal || d < nominal*(1-po.Jitter) {
				t.Fatalf("jittered Backoff(%d) = %v outside [%v, %v]",
					attempt, d, nominal*(1-po.Jitter), nominal)
			}
		}
	}
	// Same seed, same jitter sequence.
	seq := func() []float64 {
		r := rand.New(rand.NewSource(3))
		var out []float64
		for i := 0; i < 10; i++ {
			out = append(out, po.Backoff(2, r))
		}
		return out
	}
	if !reflect.DeepEqual(seq(), seq()) {
		t.Fatal("seeded jitter is not deterministic")
	}
}

func TestDoRetriesOnlyRetryable(t *testing.T) {
	sim := simcore.New(1)
	r := NewRetrier(sim, Policy{MaxAttempts: 5, BaseDelay: 0.5, MaxDelay: 8, Multiplier: 2}, nil)

	var elapsed float64
	var calls int
	var err error
	sim.Spawn("caller", func(p *simcore.Proc) {
		t0 := p.Now()
		err = r.Do(p, "gis.query", func() error {
			calls++
			if calls < 3 {
				return fmt.Errorf("%w: gis", faultinject.ErrUnavailable)
			}
			return nil
		})
		elapsed = p.Now() - t0
	})
	sim.Run()
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want success on 3rd call", err, calls)
	}
	// No jitter: exactly 0.5 + 1.0 of backoff slept in virtual time.
	if elapsed != 1.5 {
		t.Fatalf("slept %v, want 1.5", elapsed)
	}
	if r.Retries() != 2 || r.GaveUp() != 0 {
		t.Fatalf("retries=%d gaveUp=%d, want 2/0", r.Retries(), r.GaveUp())
	}

	// A permanent error propagates immediately, un-retried.
	perm := errors.New("no such software")
	calls = 0
	sim.Spawn("caller2", func(p *simcore.Proc) {
		err = r.Do(p, "gis.lookup", func() error { calls++; return perm })
	})
	sim.Run()
	if !errors.Is(err, perm) || calls != 1 {
		t.Fatalf("permanent error: err=%v calls=%d, want 1 un-retried call", err, calls)
	}
	if r.Retries() != 2 {
		t.Fatalf("permanent error consumed a retry: %d", r.Retries())
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	sim := simcore.New(1)
	r := NewRetrier(sim, Policy{MaxAttempts: 3, BaseDelay: 0.1, Multiplier: 2}, nil)
	var calls int
	var err error
	sim.Spawn("caller", func(p *simcore.Proc) {
		err = r.Do(p, "ibp.store", func() error {
			calls++
			return faultinject.ErrUnavailable
		})
	})
	sim.Run()
	if calls != 3 {
		t.Fatalf("calls=%d, want MaxAttempts=3", calls)
	}
	if !faultinject.Retryable(err) {
		t.Fatalf("exhausted error %v should stay in the retryable class", err)
	}
	if r.GaveUp() != 1 {
		t.Fatalf("gaveUp=%d, want 1", r.GaveUp())
	}
}

// TestDoExhaustionReturnsLastError: when the budget runs out, the wrapped
// error is the final attempt's, not the first's.
func TestDoExhaustionReturnsLastError(t *testing.T) {
	sim := simcore.New(1)
	r := NewRetrier(sim, Policy{MaxAttempts: 3, BaseDelay: 0.1, Multiplier: 2}, nil)
	attempts := []error{
		fmt.Errorf("attempt one: %w", faultinject.ErrUnavailable),
		fmt.Errorf("attempt two: %w", faultinject.ErrUnavailable),
		fmt.Errorf("attempt three: %w", faultinject.ErrUnavailable),
	}
	var calls int
	var err error
	sim.Spawn("caller", func(p *simcore.Proc) {
		err = r.Do(p, "nws.forecast", func() error {
			calls++
			return attempts[calls-1]
		})
	})
	sim.Run()
	if calls != 3 {
		t.Fatalf("calls=%d, want the full budget of 3", calls)
	}
	if !errors.Is(err, attempts[2]) {
		t.Fatalf("exhaustion error %v does not wrap the last attempt's error", err)
	}
	if errors.Is(err, attempts[0]) || errors.Is(err, attempts[1]) {
		t.Fatalf("exhaustion error %v wraps an earlier attempt's error", err)
	}
	if want := "after 3 attempts"; !strings.Contains(err.Error(), want) {
		t.Fatalf("exhaustion error %q does not mention %q", err, want)
	}
}

func TestNilRetrierRunsOnce(t *testing.T) {
	var r *Retrier
	calls := 0
	err := r.Do(nil, "x", func() error { calls++; return faultinject.ErrUnavailable })
	if calls != 1 || !faultinject.Retryable(err) {
		t.Fatalf("nil retrier: calls=%d err=%v", calls, err)
	}
	if r.Retries() != 0 || r.GaveUp() != 0 {
		t.Fatal("nil retrier counters must read 0")
	}
}

func detectorGrid(sim *simcore.Sim) *topology.Grid {
	g := topology.NewGrid(sim)
	g.AddSite("A", 1e8, 1e-4)
	g.AddNode(topology.NodeSpec{Name: "a1", Site: "A", MHz: 1000, FlopsPerCycle: 1})
	g.AddNode(topology.NodeSpec{Name: "a2", Site: "A", MHz: 1000, FlopsPerCycle: 1})
	return g
}

func TestDetectorTransitions(t *testing.T) {
	sim := simcore.New(1)
	g := detectorGrid(sim)
	d := NewDetector(sim, g, 1)
	d.Watch("a1", "a2", "nosuch")

	type firing struct {
		node string
		down bool
		at   float64
	}
	var fired []firing
	d.OnFailure(func(n string, at float64) { fired = append(fired, firing{n, true, at}) })
	d.OnRecovery(func(n string, at float64) { fired = append(fired, firing{n, false, at}) })
	d.Start()

	sim.At(2.5, func() { g.SetNodeDown("a1", true) })
	sim.At(5.5, func() { g.SetNodeDown("a1", false) })
	sim.At(7.5, func() { g.SetNodeDown("a1", true) }) // second failure fires again
	sim.At(10, d.Stop)
	sim.RunUntil(20)

	want := []firing{{"a1", true, 3}, {"a1", false, 6}, {"a1", true, 8}}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("firings %v, want %v (detection latency <= one period)", fired, want)
	}
	if d.Suspects() != 2 {
		t.Fatalf("suspects=%d, want 2", d.Suspects())
	}
	if !d.suspected["a1"] || d.suspected["a2"] {
		t.Fatal("suspicion state wrong after the run")
	}
}

// TestDetectorFlappingHeartbeats: a node flapping down/up/down/up raises a
// strictly alternating suspect → recover → suspect → recover sequence with
// nondecreasing detection times, each suspicion cleared before the next one
// fires, while an untouched node stays quiet.
func TestDetectorFlappingHeartbeats(t *testing.T) {
	sim := simcore.New(1)
	g := detectorGrid(sim)
	d := NewDetector(sim, g, 1)
	d.Watch("a1", "a2")

	type firing struct {
		node string
		down bool
		at   float64
	}
	var fired []firing
	d.OnFailure(func(n string, at float64) {
		if d.suspected[n] != true {
			t.Errorf("OnFailure(%s) fired without the node marked suspected", n)
		}
		fired = append(fired, firing{n, true, at})
	})
	d.OnRecovery(func(n string, at float64) {
		if d.suspected[n] {
			t.Errorf("OnRecovery(%s) fired with the suspicion still set", n)
		}
		fired = append(fired, firing{n, false, at})
	})
	d.Start()

	// Each flap phase outlasts one heartbeat period so every transition is
	// observed.
	flaps := []struct {
		at   float64
		down bool
	}{{2.2, true}, {4.2, false}, {6.2, true}, {8.2, false}}
	for _, f := range flaps {
		f := f
		sim.At(f.at, func() { g.SetNodeDown("a1", f.down) })
	}
	sim.At(12, d.Stop)
	sim.RunUntil(20)

	if len(fired) != len(flaps) {
		t.Fatalf("got %d firings %v, want %d (one per flap phase)", len(fired), fired, len(flaps))
	}
	for i, f := range fired {
		if f.node != "a1" {
			t.Fatalf("firing %d on %s; only a1 flapped", i, f.node)
		}
		if wantDown := i%2 == 0; f.down != wantDown {
			t.Fatalf("firing %d down=%v, want strict suspect/recover alternation %v", i, f.down, fired)
		}
		if i > 0 && f.at <= fired[i-1].at {
			t.Fatalf("firing %d at %g not after previous at %g", i, f.at, fired[i-1].at)
		}
		if lag := f.at - flaps[i].at; lag < 0 || lag > 1 {
			t.Fatalf("firing %d detected %gs after the flap, want within one period", i, lag)
		}
	}
	if d.Suspects() != 2 {
		t.Fatalf("suspects=%d, want one per down phase", d.Suspects())
	}
	if d.suspected["a1"] || d.suspected["a2"] {
		t.Fatal("no node should end the run suspected")
	}
}
