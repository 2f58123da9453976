package resilience

import (
	"grads/internal/simcore"
)

// BudgetConfig parameterizes the per-service retry budget: a token bucket
// refilled by virtual time. Every retry (not first attempts) spends one
// token; an empty bucket denies the retry, so a whole fleet of callers
// hammering one recovering service collectively backs off instead of
// storming it.
type BudgetConfig struct {
	// Capacity is the bucket size in tokens (minimum 1).
	Capacity float64
	// RefillPerSec is how many tokens accrue per virtual second.
	RefillPerSec float64
}

// DefaultBudgetConfig allows bursts of 10 retries per service, refilled at
// one per second — generous enough that a lone job rides out an outage,
// tight enough that dozens of callers cannot multiply into a storm.
func DefaultBudgetConfig() BudgetConfig {
	return BudgetConfig{Capacity: 10, RefillPerSec: 1}
}

// Budget is one service's token bucket, lazily refilled from the
// simulation clock so it costs nothing while the service is healthy.
type Budget struct {
	sim *simcore.Sim
	cfg BudgetConfig

	tokens     float64
	lastRefill float64

	taken  int // retries granted
	denied int // retries refused on an empty bucket
}

// NewBudget creates a full bucket over sim.
func NewBudget(sim *simcore.Sim, cfg BudgetConfig) *Budget {
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	if cfg.RefillPerSec < 0 {
		cfg.RefillPerSec = 0
	}
	return &Budget{sim: sim, cfg: cfg, tokens: cfg.Capacity, lastRefill: sim.Now()}
}

// refill accrues tokens for the elapsed virtual time.
func (b *Budget) refill() {
	now := b.sim.Now()
	if now > b.lastRefill {
		b.tokens += (now - b.lastRefill) * b.cfg.RefillPerSec
		if b.tokens > b.cfg.Capacity {
			b.tokens = b.cfg.Capacity
		}
	}
	b.lastRefill = now
}

// TryTake spends one token if available and reports whether the retry may
// proceed. A nil budget always grants (budgets disabled).
func (b *Budget) TryTake() bool {
	if b == nil {
		return true
	}
	b.refill()
	if b.tokens < 1 {
		b.denied++
		if tel := b.sim.Telemetry(); tel != nil {
			tel.Counter("resilience", "budget_denied").Inc()
		}
		return false
	}
	b.tokens--
	b.taken++
	return true
}

// BudgetSet holds one token bucket per service, created full on first use.
// The budget is shared by every caller retrying against that service —
// that sharing is the point: it converts N independent retry loops into
// one bounded aggregate retry rate per service.
type BudgetSet struct {
	sim     *simcore.Sim
	cfg     BudgetConfig
	budgets map[string]*Budget
}

// NewBudgetSet creates an empty set over sim.
func NewBudgetSet(sim *simcore.Sim, cfg BudgetConfig) *BudgetSet {
	return &BudgetSet{sim: sim, cfg: cfg, budgets: make(map[string]*Budget)}
}

// For returns the budget of service, creating a full bucket on first use.
// A nil set returns nil (budgets disabled; nil *Budget grants everything).
func (bs *BudgetSet) For(service string) *Budget {
	if bs == nil {
		return nil
	}
	b := bs.budgets[service]
	if b == nil {
		b = NewBudget(bs.sim, bs.cfg)
		bs.budgets[service] = b
	}
	return b
}

// Denied sums the denied-retry counts across the set.
func (bs *BudgetSet) Denied() int {
	if bs == nil {
		return 0
	}
	sum := 0
	for _, b := range bs.budgets {
		sum += b.denied
	}
	return sum
}
