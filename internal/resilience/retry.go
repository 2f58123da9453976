// Package resilience provides the fault-handling primitives the GrADS
// services share: a virtual-time retry policy with seeded exponential
// backoff for calls against flaky grid services, and a heartbeat-based
// failure detector that feeds the contract monitor and rescheduler when
// nodes crash.
//
// Both primitives are deterministic: backoff jitter comes from an explicit
// seeded source and all waiting happens in virtual time, so two runs with
// the same seed retry at exactly the same instants.
package resilience

import (
	"fmt"
	"math/rand"

	"grads/internal/faultinject"
	"grads/internal/simcore"
	"grads/internal/telemetry"
)

// Policy is a retry/timeout policy for calls against grid services.
// Attempts that fail with a retryable error (faultinject.Retryable) are
// re-tried after an exponentially growing, jittered backoff; other errors
// propagate immediately. The zero value retries nothing; use DefaultPolicy
// for the stack-wide default.
type Policy struct {
	MaxAttempts int     // total attempts, including the first (<=1 disables retry)
	BaseDelay   float64 // backoff before the second attempt, seconds
	MaxDelay    float64 // backoff ceiling, seconds
	Multiplier  float64 // backoff growth per attempt (>= 1)
	Jitter      float64 // fraction of the delay randomized away, [0, 1]
}

// DefaultPolicy is the stack-wide service-call policy: five attempts with
// 0.5 s → 8 s exponential backoff and 25% jitter. Total worst-case wait is
// under half a minute — long enough to ride out a short outage, short
// enough that a permanent one surfaces before the contract monitor's
// horizon.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 5, BaseDelay: 0.5, MaxDelay: 8, Multiplier: 2, Jitter: 0.25}
}

// Backoff returns the wait in seconds before attempt (1-based: Backoff(1)
// precedes the second attempt), drawing jitter from rng. A nil rng yields
// the deterministic un-jittered delay.
func (po Policy) Backoff(attempt int, rng *rand.Rand) float64 {
	if attempt < 1 {
		attempt = 1
	}
	d := po.BaseDelay
	mult := po.Multiplier
	if mult < 1 {
		mult = 1
	}
	for i := 1; i < attempt; i++ {
		d *= mult
		if po.MaxDelay > 0 && d >= po.MaxDelay {
			d = po.MaxDelay
			break
		}
	}
	if po.MaxDelay > 0 && d > po.MaxDelay {
		d = po.MaxDelay
	}
	if rng != nil && po.Jitter > 0 && d > 0 {
		j := po.Jitter
		if j > 1 {
			j = 1
		}
		// Deterministic jitter in [1-j, 1]: never longer than the nominal
		// delay, so MaxDelay stays an upper bound.
		d *= 1 - j*rng.Float64()
	}
	return d
}

// Retrier executes service calls under a Policy, sleeping virtual time
// between attempts and emitting one service.retry telemetry event per
// re-attempt.
type Retrier struct {
	sim    *simcore.Sim
	policy Policy
	rng    *rand.Rand

	// Optional recovery control plane: per-service circuit breakers (fail
	// fast while a service is known-down) and shared retry budgets (bound
	// the aggregate retry rate against a recovering service). Nil means
	// plain policy-driven retries.
	breakers *BreakerSet
	budgets  *BudgetSet

	retries int // re-attempts performed
	gaveUp  int // calls that exhausted every attempt
}

// NewRetrier creates a retrier over sim with the given policy and jitter
// source. A nil rng disables jitter (still fully deterministic).
func NewRetrier(sim *simcore.Sim, policy Policy, rng *rand.Rand) *Retrier {
	if policy.MaxAttempts < 1 {
		policy.MaxAttempts = 1
	}
	return &Retrier{sim: sim, policy: policy, rng: rng}
}

// SetGuards installs the recovery control plane around the retrier's
// calls: breakers trip per service after consecutive failures and fail
// subsequent calls fast; budgets spend one token per retry so callers
// sharing a service cannot collectively storm it. Either may be nil.
func (r *Retrier) SetGuards(breakers *BreakerSet, budgets *BudgetSet) {
	r.breakers = breakers
	r.budgets = budgets
}

// Breakers returns the installed breaker set, or nil.
func (r *Retrier) Breakers() *BreakerSet {
	if r == nil {
		return nil
	}
	return r.breakers
}

// Budgets returns the installed budget set, or nil.
func (r *Retrier) Budgets() *BudgetSet {
	if r == nil {
		return nil
	}
	return r.budgets
}

// serviceOf maps an op name to its service key: the prefix before the
// first dot ("ibp.store" -> "ibp"), or the whole op when undotted.
func serviceOf(op string) string {
	for i := 0; i < len(op); i++ {
		if op[i] == '.' {
			return op[:i]
		}
	}
	return op
}

// Retries returns how many re-attempts the retrier has performed.
func (r *Retrier) Retries() int {
	if r == nil {
		return 0
	}
	return r.retries
}

// GaveUp returns how many calls exhausted all attempts.
func (r *Retrier) GaveUp() int {
	if r == nil {
		return 0
	}
	return r.gaveUp
}

// Do runs call from process p, retrying on retryable errors per the policy.
// op names the call in telemetry ("gis.query", "ibp.store"); its prefix
// before the first dot selects the breaker and budget when guards are
// installed. A nil Retrier runs the call once with no retry. The returned
// error is the last attempt's, wrapped with the attempt count when retries
// were exhausted.
func (r *Retrier) Do(p *simcore.Proc, op string, call func() error) error {
	return r.DoUntil(p, op, NoDeadline, call)
}

// DoUntil is Do under an absolute virtual-time deadline: the retry loop
// gives up (returning the last error wrapped) rather than start a backoff
// that would cross it. Multi-hop recovery operations pass one Deadline
// down to every hop, so the hops share a single recovery budget.
func (r *Retrier) DoUntil(p *simcore.Proc, op string, dl Deadline, call func() error) error {
	if r == nil {
		return call()
	}
	svc := serviceOf(op)
	br := r.breakers.For(svc)
	var err error
	for attempt := 1; ; attempt++ {
		if br != nil && !br.Allow() {
			// Fail fast without touching the recovering service. The error
			// is retryable, so the loop below still backs off and re-tries
			// (a probe slot may open), bounded by the budget and deadline.
			err = fmt.Errorf("%w for %s", ErrCircuitOpen, svc)
		} else {
			err = call()
			if br != nil {
				br.Record(err)
			}
		}
		if err == nil || !faultinject.Retryable(err) || attempt >= r.policy.MaxAttempts {
			break
		}
		wait := r.policy.Backoff(attempt, r.rng)
		now := r.sim.Now()
		if dl.Expired(now) || now+wait > dl.At() {
			r.giveUp(op, "deadline")
			return fmt.Errorf("%s deadline exceeded after %d attempts: %w", op, attempt, err)
		}
		if !r.budgets.For(svc).TryTake() {
			r.giveUp(op, "budget")
			return fmt.Errorf("retry budget for %s exhausted after %d attempts: %w", svc, attempt, err)
		}
		r.retries++
		if tel := r.sim.Telemetry(); tel != nil {
			tel.Counter("resilience", "retries").Inc()
			tel.Emit(telemetry.Event{
				Type: telemetry.EvServiceRetry, Comp: "resilience", Name: op,
				Args: []telemetry.Arg{
					telemetry.I("attempt", attempt),
					telemetry.F("backoff", wait),
				},
			})
		}
		if serr := p.Sleep(wait); serr != nil {
			return serr // interrupted while backing off: surface the interrupt
		}
	}
	if err != nil && faultinject.Retryable(err) {
		r.giveUp(op, "attempts")
		return fmt.Errorf("after %d attempts: %w", r.policy.MaxAttempts, err)
	}
	return err
}

// giveUp accounts one abandoned call and publishes why.
func (r *Retrier) giveUp(op, reason string) {
	r.gaveUp++
	if tel := r.sim.Telemetry(); tel != nil {
		tel.Counter("resilience", "gave_up").Inc()
		tel.Emit(telemetry.Event{
			Type: telemetry.EvServiceDegraded, Comp: "resilience", Name: op,
			Args: []telemetry.Arg{telemetry.S("reason", reason)},
		})
	}
}
