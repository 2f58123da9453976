package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"grads/internal/faultinject"
	"grads/internal/simcore"
)

var errDown = fmt.Errorf("%w: svc", faultinject.ErrUnavailable)

// step is one scripted interaction with a breaker: advance the clock, make
// a call (allowed or not), and check the resulting state.
type step struct {
	at        float64 // virtual time of the step
	outcome   error   // what the call returns if allowed (nil = success)
	wantAllow bool
	wantState BreakerState // state after the step
}

func runSteps(t *testing.T, name string, cfg BreakerConfig, steps []step) {
	t.Helper()
	sim := simcore.New(1)
	b := NewBreaker(sim, "svc", cfg, nil) // no jitter: exact cooldown edges
	for i, s := range steps {
		sim.RunUntil(s.at)
		got := b.Allow()
		if got != s.wantAllow {
			t.Fatalf("%s step %d (t=%g): Allow() = %v, want %v", name, i, s.at, got, s.wantAllow)
		}
		if got {
			b.Record(s.outcome)
		}
		if st := b.State(); st != s.wantState {
			t.Fatalf("%s step %d (t=%g): state = %v, want %v", name, i, s.at, st, s.wantState)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	cfg := BreakerConfig{FailureThreshold: 2, Cooldown: 10, HalfOpenProbes: 1}
	cases := []struct {
		name  string
		steps []step
	}{
		{
			name: "trips after threshold consecutive failures",
			steps: []step{
				{at: 0, outcome: errDown, wantAllow: true, wantState: BreakerClosed},
				{at: 1, outcome: errDown, wantAllow: true, wantState: BreakerOpen},
				{at: 2, wantAllow: false, wantState: BreakerOpen},
			},
		},
		{
			name: "success resets the consecutive count",
			steps: []step{
				{at: 0, outcome: errDown, wantAllow: true, wantState: BreakerClosed},
				{at: 1, outcome: nil, wantAllow: true, wantState: BreakerClosed},
				{at: 2, outcome: errDown, wantAllow: true, wantState: BreakerClosed},
				{at: 3, outcome: errDown, wantAllow: true, wantState: BreakerOpen},
			},
		},
		{
			name: "semantic errors never trip it",
			steps: []step{
				{at: 0, outcome: errors.New("no such software"), wantAllow: true, wantState: BreakerClosed},
				{at: 1, outcome: errors.New("no such software"), wantAllow: true, wantState: BreakerClosed},
				{at: 2, outcome: errors.New("no such software"), wantAllow: true, wantState: BreakerClosed},
			},
		},
		{
			name: "half-open probe success closes",
			steps: []step{
				{at: 0, outcome: errDown, wantAllow: true, wantState: BreakerClosed},
				{at: 1, outcome: errDown, wantAllow: true, wantState: BreakerOpen},
				{at: 5, wantAllow: false, wantState: BreakerOpen}, // cooldown runs to t=11
				{at: 11, outcome: nil, wantAllow: true, wantState: BreakerClosed},
				{at: 12, outcome: nil, wantAllow: true, wantState: BreakerClosed},
			},
		},
		{
			name: "half-open probe failure re-opens for a fresh cooldown",
			steps: []step{
				{at: 0, outcome: errDown, wantAllow: true, wantState: BreakerClosed},
				{at: 1, outcome: errDown, wantAllow: true, wantState: BreakerOpen},
				{at: 11, outcome: errDown, wantAllow: true, wantState: BreakerOpen},
				{at: 20, wantAllow: false, wantState: BreakerOpen}, // new cooldown runs to t=21
				{at: 21, outcome: nil, wantAllow: true, wantState: BreakerClosed},
			},
		},
		{
			name: "half-open admits only the configured probes",
			steps: []step{
				{at: 0, outcome: errDown, wantAllow: true, wantState: BreakerClosed},
				{at: 1, outcome: errDown, wantAllow: true, wantState: BreakerOpen},
				// First Allow after cooldown takes the single probe slot but
				// its Record has not happened when the second Allow arrives.
				{at: 11, outcome: errDown, wantAllow: true, wantState: BreakerOpen},
				{at: 11, wantAllow: false, wantState: BreakerOpen},
			},
		},
	}
	for _, tc := range cases {
		runSteps(t, tc.name, cfg, tc.steps)
	}
}

func TestBreakerCounters(t *testing.T) {
	sim := simcore.New(1)
	b := NewBreaker(sim, "svc", BreakerConfig{FailureThreshold: 1, Cooldown: 5, HalfOpenProbes: 1}, nil)
	b.Allow()
	b.Record(errDown) // trip 1
	if b.Allow() {
		t.Fatal("open breaker allowed a call inside the cooldown")
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a second call inside the cooldown")
	}
	sim.RunUntil(5)
	b.Allow()
	b.Record(errDown) // probe fails: trip 2
	if b.opens != 2 || b.fastFails != 2 {
		t.Fatalf("opens=%d fastFails=%d, want 2/2", b.opens, b.fastFails)
	}
}

// TestBreakerJitterDeterministicAcrossSeeds: the jittered cooldown sequence
// is a pure function of the seed — identical for equal seeds, different for
// different ones (the anti-lockstep property).
func TestBreakerJitterDeterministicAcrossSeeds(t *testing.T) {
	trips := func(seed int64) []float64 {
		sim := simcore.New(1)
		cfg := BreakerConfig{FailureThreshold: 1, Cooldown: 8, ProbeJitter: 0.5, HalfOpenProbes: 1}
		b := NewBreaker(sim, "svc", cfg, rand.New(rand.NewSource(seed)))
		var outs []float64
		at := 0.0
		for i := 0; i < 6; i++ {
			sim.RunUntil(at)
			if !b.Allow() {
				t.Fatalf("breaker not ready to probe at t=%g", at)
			}
			b.Record(errDown)
			outs = append(outs, b.openUntil)
			at = b.openUntil // next probe exactly when the cooldown expires
		}
		return outs
	}
	a1, a2, b1 := trips(7), trips(7), trips(8)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("same seed, different trip schedule:\n%v\n%v", a1, a2)
	}
	if reflect.DeepEqual(a1, b1) {
		t.Fatal("different seeds produced identical jittered cooldowns")
	}
	for i, until := range a1 {
		lo := 4.0 // Cooldown * (1 - ProbeJitter)
		prev := 0.0
		if i > 0 {
			prev = a1[i-1]
		}
		if d := until - prev; d < lo || d > 8 {
			t.Fatalf("jittered cooldown %d = %g outside [4,8]", i, d)
		}
	}
}

func TestBudgetTable(t *testing.T) {
	cases := []struct {
		name       string
		cfg        BudgetConfig
		takes      int     // TryTake calls at t=0
		wantGrants int     // how many of them succeed
		advance    float64 // then advance the clock...
		moreTakes  int     // ...and take again
		wantMore   int
	}{
		{
			name:  "burst capped at capacity",
			cfg:   BudgetConfig{Capacity: 3, RefillPerSec: 0},
			takes: 5, wantGrants: 3,
			advance: 100, moreTakes: 2, wantMore: 0, // no refill configured
		},
		{
			name:  "refill restores tokens with virtual time",
			cfg:   BudgetConfig{Capacity: 4, RefillPerSec: 1},
			takes: 4, wantGrants: 4,
			advance: 2.5, moreTakes: 3, wantMore: 2,
		},
		{
			name:  "refill never exceeds capacity",
			cfg:   BudgetConfig{Capacity: 2, RefillPerSec: 10},
			takes: 2, wantGrants: 2,
			advance: 1000, moreTakes: 5, wantMore: 2,
		},
	}
	for _, tc := range cases {
		sim := simcore.New(1)
		b := NewBudget(sim, tc.cfg)
		grants := 0
		for i := 0; i < tc.takes; i++ {
			if b.TryTake() {
				grants++
			}
		}
		if grants != tc.wantGrants {
			t.Fatalf("%s: %d of %d initial takes granted, want %d", tc.name, grants, tc.takes, tc.wantGrants)
		}
		sim.RunUntil(tc.advance)
		more := 0
		for i := 0; i < tc.moreTakes; i++ {
			if b.TryTake() {
				more++
			}
		}
		if more != tc.wantMore {
			t.Fatalf("%s: %d of %d post-refill takes granted, want %d", tc.name, more, tc.moreTakes, tc.wantMore)
		}
		if b.taken != grants+more || b.denied != (tc.takes-grants)+(tc.moreTakes-more) {
			t.Fatalf("%s: taken=%d denied=%d inconsistent with grant history", tc.name, b.taken, b.denied)
		}
	}
}

// TestRetrierGuards: the integrated path — a breaker trips during a
// persistent outage, fast-fails subsequent attempts, and the retry budget
// bounds the total retries spent per service.
func TestRetrierGuards(t *testing.T) {
	sim := simcore.New(1)
	r := NewRetrier(sim, Policy{MaxAttempts: 6, BaseDelay: 1, MaxDelay: 1, Multiplier: 1}, nil)
	r.SetGuards(
		NewBreakerSet(sim, BreakerConfig{FailureThreshold: 2, Cooldown: 100, HalfOpenProbes: 1}, nil),
		NewBudgetSet(sim, BudgetConfig{Capacity: 100, RefillPerSec: 0}),
	)
	calls := 0
	var err error
	sim.Spawn("caller", func(p *simcore.Proc) {
		err = r.Do(p, "gis.query", func() error { calls++; return errDown })
	})
	sim.Run()
	// Attempts 1 and 2 invoke and trip the breaker; attempts 3..6 fast-fail
	// against the open breaker without touching the service.
	if calls != 2 {
		t.Fatalf("service invoked %d times, want 2 (breaker fast-fails the rest)", calls)
	}
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("final error %v should surface the open circuit", err)
	}
	if got := r.Breakers().For("gis").opens; got != 1 {
		t.Fatalf("breaker opens = %d, want 1", got)
	}
	if fb := r.Breakers().FastFails(); fb != 4 {
		t.Fatalf("fast fails = %d, want 4", fb)
	}

	// Budget exhaustion: a service with an empty bucket gives up after the
	// first attempt instead of sleeping through backoff.
	r2 := NewRetrier(sim, Policy{MaxAttempts: 6, BaseDelay: 1, MaxDelay: 1, Multiplier: 1}, nil)
	r2.SetGuards(nil, NewBudgetSet(sim, BudgetConfig{Capacity: 1, RefillPerSec: 0}))
	calls2 := 0
	var err2 error
	sim.Spawn("caller2", func(p *simcore.Proc) {
		err2 = r2.Do(p, "ibp.store", func() error { calls2++; return errDown })
	})
	sim.Run()
	// Capacity 1: attempt 1 fails, one retry token grants attempt 2, then
	// the empty bucket denies further retries.
	if calls2 != 2 {
		t.Fatalf("service invoked %d times, want 2 (budget denies the rest)", calls2)
	}
	if err2 == nil || r2.Budgets().For("ibp").denied != 1 {
		t.Fatalf("err=%v denied=%d, want budget-exhausted failure after 1 denial",
			err2, r2.Budgets().For("ibp").denied)
	}
}

// TestDeadlinePropagation: DoUntil refuses to start a backoff sleep that
// would cross the deadline, so multi-hop recovery paths inherit one shared
// time bound instead of each hop getting a fresh allowance.
func TestDeadlinePropagation(t *testing.T) {
	sim := simcore.New(1)
	r := NewRetrier(sim, Policy{MaxAttempts: 10, BaseDelay: 4, MaxDelay: 4, Multiplier: 1}, nil)
	calls := 0
	var err error
	var elapsed float64
	sim.Spawn("caller", func(p *simcore.Proc) {
		t0 := p.Now()
		dl := DeadlineAfter(p.Now(), 10)
		err = r.DoUntil(p, "gis.query", dl, func() error { calls++; return errDown })
		elapsed = p.Now() - t0
	})
	sim.Run()
	// Attempts at t=0,4,8; the next backoff would end at t=12 > 10.
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 before the deadline cuts off", calls)
	}
	if elapsed > 10 {
		t.Fatalf("retrying ran %gs past a 10s deadline", elapsed)
	}
	if err == nil {
		t.Fatal("deadline exhaustion must surface an error")
	}

	// NoDeadline is unbounded: all attempts run.
	calls = 0
	sim.Spawn("caller2", func(p *simcore.Proc) {
		err = r.DoUntil(p, "gis.query", NoDeadline, func() error { calls++; return errDown })
	})
	sim.Run()
	if calls != 10 {
		t.Fatalf("calls = %d, want the full MaxAttempts under NoDeadline", calls)
	}
}
