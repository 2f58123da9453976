package metasched

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"grads/internal/topology"
)

// Policy names a queue-ordering discipline for the admission queue.
type Policy string

const (
	// PolicyFIFO admits strictly in submission order; the head of the line
	// blocks everything behind it.
	PolicyFIFO Policy = "fifo"
	// PolicyPriority orders the queue by bid, highest first; the
	// highest-bidding job blocks the rest.
	PolicyPriority Policy = "priority"
	// PolicyBackfill is PolicyPriority with EASY backfill: while the head
	// waits for its nodes, smaller jobs may jump ahead if they fit now and
	// do not delay the head's reservation.
	PolicyBackfill Policy = "priority-backfill"
)

// Policies lists every known policy in a stable order.
func Policies() []Policy { return []Policy{PolicyFIFO, PolicyPriority, PolicyBackfill} }

// ParsePolicy validates a policy name.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies() {
		if string(p) == s {
			return p, nil
		}
	}
	return "", fmt.Errorf("metasched: unknown queue policy %q (want fifo, priority or priority-backfill)", s)
}

// bidRank is a job's rank under the priority policies: its bid, with every
// non-positive bid ranking at zero so those jobs fall back to FIFO order
// among themselves. The posted spot price is one number shared by every
// job, so dividing bids by it could never reorder them; the queue ranks by
// the bid itself and the price is only reported.
func bidRank(j *Job) float64 {
	if j.Spec.Bid > 0 {
		return j.Spec.Bid
	}
	return 0
}

// queuedBefore reports whether a is admitted before b under the policy.
// FIFO orders by queue-entry time (ties by job ID); the priority policies
// order by descending bid rank, with entry time then ID breaking ties so
// equal bids degrade to FIFO. The key never changes while a job is queued,
// which is what lets the queue stay sorted between rounds.
func queuedBefore(policy Policy, a, b *Job) bool {
	if policy != PolicyFIFO {
		if ra, rb := bidRank(a), bidRank(b); ra != rb {
			return ra > rb
		}
	}
	if a.enqueuedAt != b.enqueuedAt {
		return a.enqueuedAt < b.enqueuedAt
	}
	return a.ID < b.ID
}

// enqueue inserts a job into the admission queue at its place in policy
// order, so the queue is always in admission order.
func (s *Scheduler) enqueue(job *Job) {
	i := sort.Search(len(s.queued), func(i int) bool { return queuedBefore(s.cfg.Policy, job, s.queued[i]) })
	s.queued = slices.Insert(s.queued, i, job)
}

// dequeue removes a job from the admission queue.
func (s *Scheduler) dequeue(job *Job) {
	if i := slices.Index(s.queued, job); i >= 0 {
		s.queued = slices.Delete(s.queued, i, i+1)
	}
}

// nextEligible returns the index of the first queued job at or after from
// that is admissible now — not parked inside a requeue-backoff window — or
// -1 when there is none. Index 0 onward yields the queue head.
func (s *Scheduler) nextEligible(from int, now float64) int {
	for i := from; i < len(s.queued); i++ {
		if s.queued[i].notBefore <= now {
			return i
		}
	}
	return -1
}

// nextBackfill walks the eligible queued jobs from index from onward and
// returns the first one EASY backfill lets in now, with its placement, or
// -1. A job must get its needed width from the free pool and, if it would
// run past the head's shadow time, fit within the extra nodes. Every mapper
// places a subset of the pool it is given, so a job needing more nodes than
// are free, or needing more than the extra nodes when it would overrun the
// shadow, is skipped without running its mapper.
func (s *Scheduler) nextBackfill(now float64, from int, free []*topology.Node, avail func(*topology.Node) float64, shadow float64, extra int) (int, []*topology.Node) {
	for i := s.nextEligible(from, now); i >= 0; i = s.nextEligible(i+1, now) {
		cand := s.queued[i]
		need := s.needWidth(cand)
		late := now+cand.Spec.EstRuntime > shadow
		if need > len(free) || (late && need > extra) {
			continue
		}
		nodes := s.placement(cand, free, avail)
		if len(nodes) < need || (late && len(nodes) > extra) {
			continue // too narrow, or would delay the head's reservation
		}
		return i, nodes
	}
	return -1, nil
}

// backfillWindow computes the EASY reservation for the blocked head job:
// the shadow time at which, per the running jobs' runtime estimates, enough
// nodes will have come free for the head (headNeed nodes), and the extra
// nodes beyond the head's need available at that time. A backfilled job is
// safe if it either finishes before the shadow time or fits within the
// extra nodes. When the estimates never free enough nodes the window is
// unbounded (the reservation cannot be computed, so backfill is
// unrestricted — matching EASY's behavior of only reserving for a
// satisfiable head).
func (s *Scheduler) backfillWindow(now float64, free int, headNeed int, running []*Job) (shadow float64, extra int) {
	if free >= headNeed {
		return now, free - headNeed
	}
	rel := s.releases[:0]
	for _, j := range running {
		if j.lease == nil || j.lease.Size() == 0 {
			continue
		}
		at := j.startAt + j.Spec.EstRuntime
		if at < now {
			at = now
		}
		rel = append(rel, release{at: at, width: j.lease.Size()})
	}
	s.releases = rel
	slices.SortStableFunc(rel, func(a, b release) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	avail := free
	for _, r := range rel {
		avail += r.width
		if avail >= headNeed {
			return r.at, avail - headNeed
		}
	}
	return math.Inf(1), math.MaxInt32
}

// release is one running job's estimated release of its lease: at time at,
// width nodes come back to the pool.
type release struct {
	at    float64
	width int
}
