package chaossoak

import (
	"fmt"
	"strings"

	"grads/internal/metasched"
	"grads/internal/simcore"
	"grads/internal/telemetry"
)

// checker sweeps the soak invariants on a virtual-time period. Every check
// is a safety property that must hold at every instant, whatever faults
// are in flight:
//
//  1. job conservation — the scheduler's per-state counts always sum to
//     the number of submissions, the queued count matches the queue, and
//     Remaining matches the non-terminal population (no job ever vanishes
//     or double-counts);
//  2. lease ledger soundness — LeaseManager.Audit passes (ownership maps,
//     lease sets and the leased counter agree; no down node is held) and
//     the busy node-seconds integral never decreases;
//  3. checkpoint integrity — no job's SRS ever hands restored bytes to the
//     application that fail their checksum (CorruptServed stays 0);
//  4. kernel sanity — virtual time and the fired-event counter are
//     monotone.
type checker struct {
	sim   *simcore.Sim
	sched *metasched.Scheduler
	jobs  int

	proc       *simcore.Proc
	checks     int
	violations []Violation
	suppressed int

	lastNow    float64
	lastEvents uint64
	lastBusy   float64
	lastServed int
}

func newChecker(sim *simcore.Sim, sched *metasched.Scheduler, jobs int) *checker {
	return &checker{sim: sim, sched: sched, jobs: jobs}
}

// start spawns the sweep daemon. done short-circuits it once the stream has
// drained (the final at-rest sweep is run by the caller).
func (c *checker) start(period float64, done func() bool) {
	c.proc = c.sim.Spawn("soak-invariants", func(p *simcore.Proc) {
		for !done() {
			if err := p.Sleep(period); err != nil {
				return
			}
			if done() {
				return
			}
			c.sweep(p.Now())
		}
	})
}

// stop kills the sweep daemon so a drained soak can run the event queue
// dry instead of ticking until the cap.
func (c *checker) stop() {
	if c.proc != nil {
		c.proc.Kill()
	}
}

// violate records one failed check, bounded, and mirrors it to telemetry.
func (c *checker) violate(t float64, invariant, detail string) {
	if len(c.violations) < maxViolationDetails {
		c.violations = append(c.violations, Violation{T: t, Invariant: invariant, Detail: detail})
	} else {
		c.suppressed++
	}
	if tel := c.sim.Telemetry(); tel != nil {
		tel.Counter("soak", "violations").Inc()
		tel.Emit(telemetry.Event{
			Type: telemetry.EvSoakViolation, Comp: "soak", Name: invariant,
			Args: []telemetry.Arg{telemetry.S("detail", detail)},
		})
	}
}

// sweep runs every invariant once against the current instant.
func (c *checker) sweep(now float64) {
	c.checks++

	// 4. Kernel sanity first: everything else trusts the clock.
	if now < c.lastNow {
		c.violate(now, "monotone-time",
			fmt.Sprintf("virtual time went backwards: %g after %g", now, c.lastNow))
	}
	c.lastNow = now
	if ev := c.sim.EventsFired(); ev < c.lastEvents {
		c.violate(now, "monotone-events",
			fmt.Sprintf("fired-event counter went backwards: %d after %d", ev, c.lastEvents))
	} else {
		c.lastEvents = ev
	}

	// 1. Job conservation.
	counts := c.sched.StateCounts()
	sum := 0
	for _, n := range counts {
		sum += n
	}
	if sum != c.jobs {
		c.violate(now, "job-conservation",
			fmt.Sprintf("state counts sum to %d, submitted %d (%s)", sum, c.jobs, formatCounts(counts)))
	}
	if q := counts[metasched.JobQueued]; q != c.sched.QueueDepth() {
		c.violate(now, "job-conservation",
			fmt.Sprintf("%d jobs in state queued but queue depth %d", q, c.sched.QueueDepth()))
	}
	terminal := counts[metasched.JobDone] + counts[metasched.JobFailed] + counts[metasched.JobQuarantined]
	if got := c.sched.Remaining(); got != c.jobs-terminal {
		c.violate(now, "job-conservation",
			fmt.Sprintf("remaining %d but %d of %d jobs are terminal", got, terminal, c.jobs))
	}

	// 2. Lease ledger soundness.
	if err := c.sched.Leases().Audit(); err != nil {
		c.violate(now, "lease-audit", err.Error())
	}
	if busy := c.sched.Leases().BusyNodeSeconds(); busy < c.lastBusy {
		c.violate(now, "lease-busy-monotone",
			fmt.Sprintf("busy node-seconds shrank: %g after %g", busy, c.lastBusy))
	} else {
		c.lastBusy = busy
	}

	// 3. Checkpoint integrity: restores must never consume corrupt bytes.
	// Report increments, not levels, so one bad read is one violation.
	served := 0
	for _, j := range c.sched.Jobs() {
		if r := j.RSS(); r != nil {
			served += r.CorruptServed()
		}
	}
	if served > c.lastServed {
		c.violate(now, "ckpt-integrity",
			fmt.Sprintf("%d corrupt checkpoint reads reached applications", served-c.lastServed))
	}
	c.lastServed = served
}

// formatCounts renders a state tally as "pending=… queued=… …", in
// lifecycle order.
func formatCounts(counts [metasched.JobQuarantined + 1]int) string {
	var b strings.Builder
	for st, n := range counts {
		if st > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", metasched.JobState(st), n)
	}
	return b.String()
}
