package resilience

import (
	"fmt"
	"math/rand"

	"grads/internal/faultinject"
	"grads/internal/simcore"
	"grads/internal/telemetry"
)

// BreakerState is the position of a circuit breaker's state machine.
type BreakerState int

const (
	// BreakerClosed passes calls through and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails calls fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets a bounded number of probe calls through; a
	// success closes the breaker, a failure re-opens it.
	BreakerHalfOpen
)

// String names the state for telemetry and reports.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// ErrCircuitOpen is returned (wrapped with the service name) when a breaker
// rejects a call without invoking it. It wraps faultinject.ErrUnavailable,
// so retry loops treat a fast-failed call exactly like a service outage:
// they back off and try again later — bounded now by the retry budget —
// instead of treating the rejection as a fatal application error.
var ErrCircuitOpen = fmt.Errorf("%w: circuit open", faultinject.ErrUnavailable)

// BreakerConfig parameterizes one service's circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive retryable failures trip the
	// breaker from closed to open (minimum 1).
	FailureThreshold int
	// Cooldown is how long (virtual seconds) an open breaker rejects calls
	// before transitioning to half-open.
	Cooldown float64
	// ProbeJitter randomizes each cooldown down by up to this fraction,
	// drawn from the breaker set's seeded source, so breakers guarding the
	// same storm don't probe the recovering service in lock-step.
	ProbeJitter float64
	// HalfOpenProbes is how many calls the half-open state admits before it
	// starts rejecting again (minimum 1). The first probe success closes
	// the breaker; a probe failure re-opens it.
	HalfOpenProbes int
}

// DefaultBreakerConfig trips after 3 consecutive failures, cools down for
// 4 s with 25% probe jitter, and admits one probe at a time — tuned so a
// breaker rides out the same outage windows as DefaultPolicy without
// hammering the recovering service.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{FailureThreshold: 3, Cooldown: 4, ProbeJitter: 0.25, HalfOpenProbes: 1}
}

// Breaker is a deterministic virtual-time circuit breaker for one service.
// All timing comes from the simulation clock and all jitter from an
// explicit seeded source, so two runs with the same seed trip, probe and
// close at exactly the same instants.
type Breaker struct {
	sim     *simcore.Sim
	service string
	cfg     BreakerConfig
	rng     *rand.Rand

	state      BreakerState
	consecFail int
	openUntil  float64 // virtual time the open state expires
	probesLeft int     // remaining half-open probe slots

	opens     int // closed/half-open -> open transitions
	fastFails int // calls rejected without being invoked
}

// NewBreaker creates a closed breaker for one service. A nil rng disables
// probe jitter (still deterministic).
func NewBreaker(sim *simcore.Sim, service string, cfg BreakerConfig, rng *rand.Rand) *Breaker {
	if cfg.FailureThreshold < 1 {
		cfg.FailureThreshold = 1
	}
	if cfg.HalfOpenProbes < 1 {
		cfg.HalfOpenProbes = 1
	}
	if cfg.Cooldown < 0 {
		cfg.Cooldown = 0
	}
	return &Breaker{sim: sim, service: service, cfg: cfg, rng: rng}
}

// State returns the breaker's current position, folding in an elapsed
// cooldown (an open breaker whose cooldown has passed reports half-open).
func (b *Breaker) State() BreakerState {
	if b.state == BreakerOpen && b.sim.Now() >= b.openUntil {
		return BreakerHalfOpen
	}
	return b.state
}

// Allow reports whether a call may proceed now. In the open state it fails
// fast until the cooldown elapses, then transitions to half-open and
// admits up to HalfOpenProbes probes.
func (b *Breaker) Allow() bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.sim.Now() < b.openUntil {
			b.fastFails++
			return false
		}
		b.transition(BreakerHalfOpen)
		b.probesLeft = b.cfg.HalfOpenProbes
		fallthrough
	default: // BreakerHalfOpen
		if b.probesLeft <= 0 {
			b.fastFails++
			return false
		}
		b.probesLeft--
		return true
	}
}

// Record feeds the outcome of an allowed call back into the state machine.
// Only retryable failures (faultinject.Retryable) count against the
// breaker: a semantic error from a healthy service must not trip it.
func (b *Breaker) Record(err error) {
	failed := err != nil && faultinject.Retryable(err)
	switch b.state {
	case BreakerClosed:
		if !failed {
			b.consecFail = 0
			return
		}
		b.consecFail++
		if b.consecFail >= b.cfg.FailureThreshold {
			b.trip()
		}
	case BreakerHalfOpen:
		if failed {
			b.trip() // the probe found the service still down
			return
		}
		b.transition(BreakerClosed)
		b.consecFail = 0
	case BreakerOpen:
		// A call admitted before the trip may report after it; ignore.
	}
}

// trip opens the breaker for one jittered cooldown.
func (b *Breaker) trip() {
	cooldown := b.cfg.Cooldown
	if b.rng != nil && b.cfg.ProbeJitter > 0 && cooldown > 0 {
		j := b.cfg.ProbeJitter
		if j > 1 {
			j = 1
		}
		cooldown *= 1 - j*b.rng.Float64()
	}
	b.openUntil = b.sim.Now() + cooldown
	b.opens++
	b.consecFail = 0
	b.transition(BreakerOpen)
}

// transition moves the state machine and publishes the edge.
func (b *Breaker) transition(to BreakerState) {
	from := b.state
	b.state = to
	if tel := b.sim.Telemetry(); tel != nil {
		if to == BreakerOpen {
			tel.Counter("resilience", "breaker_opens").Inc()
		}
		tel.Emit(telemetry.Event{
			Type: telemetry.EvBreakerState, Comp: "resilience", Name: b.service,
			Args: []telemetry.Arg{
				telemetry.S("from", from.String()),
				telemetry.S("to", to.String()),
			},
		})
	}
}

// BreakerSet holds one breaker per service, created lazily on first use so
// callers never pre-register service names. All breakers share one config
// and one seeded jitter source; creation order is call order, which is
// deterministic under the single-threaded kernel.
type BreakerSet struct {
	sim      *simcore.Sim
	cfg      BreakerConfig
	rng      *rand.Rand
	breakers map[string]*Breaker
}

// NewBreakerSet creates an empty set over sim.
func NewBreakerSet(sim *simcore.Sim, cfg BreakerConfig, rng *rand.Rand) *BreakerSet {
	return &BreakerSet{sim: sim, cfg: cfg, rng: rng, breakers: make(map[string]*Breaker)}
}

// For returns the breaker guarding service, creating it closed on first
// use. A nil set returns nil (breakers disabled).
func (bs *BreakerSet) For(service string) *Breaker {
	if bs == nil {
		return nil
	}
	b := bs.breakers[service]
	if b == nil {
		b = NewBreaker(bs.sim, service, bs.cfg, bs.rng)
		bs.breakers[service] = b
	}
	return b
}

// Opens sums the trip counts across all breakers in the set.
func (bs *BreakerSet) Opens() int {
	if bs == nil {
		return 0
	}
	sum := 0
	for _, b := range bs.breakers {
		sum += b.opens
	}
	return sum
}

// FastFails sums the fast-failed call counts across the set.
func (bs *BreakerSet) FastFails() int {
	if bs == nil {
		return 0
	}
	sum := 0
	for _, b := range bs.breakers {
		sum += b.fastFails
	}
	return sum
}
