package metasched

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"grads/internal/cop"
	"grads/internal/topology"
)

// orderQueue is the admission order the broker used to recompute on every
// admission attempt: copy the eligible jobs and stable-sort them, ranking
// the priority policies by prio with entry time then ID breaking ties. It
// is the oracle the kept queue is checked against.
func orderQueue(policy Policy, queued []*Job, prio func(*Job) float64) []*Job {
	order := append([]*Job(nil), queued...)
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if policy != PolicyFIFO {
			pa, pb := prio(a), prio(b)
			if pa != pb {
				return pa > pb
			}
		}
		if a.enqueuedAt != b.enqueuedAt {
			return a.enqueuedAt < b.enqueuedAt
		}
		return a.ID < b.ID
	})
	return order
}

// pricedPriority is the effective priority the broker used to rank by: the
// bid divided by the posted spot price, with non-positive bids at zero.
func pricedPriority(price float64) func(*Job) float64 {
	return func(j *Job) float64 {
		if j.Spec.Bid <= 0 {
			return 0
		}
		return j.Spec.Bid / price
	}
}

// eligibleIn returns the jobs of queue admissible at now, in queue order.
func eligibleIn(queue []*Job, now float64) []*Job {
	var out []*Job
	for _, j := range queue {
		if j.notBefore <= now {
			out = append(out, j)
		}
	}
	return out
}

// collapses reports whether dividing by the price maps two distinct bid
// ranks among jobs to one effective priority.
func collapses(jobs []*Job, price float64) bool {
	prio := pricedPriority(price)
	seen := map[float64]float64{} // effective priority -> bid rank
	for _, j := range jobs {
		p, r := prio(j), bidRank(j)
		if prev, ok := seen[p]; ok && prev != r {
			return true
		}
		seen[p] = r
	}
	return false
}

// TestKeptQueueMatchesOrderQueue drives the kept queue through seeded
// random arrive, requeue, dequeue and backoff sequences under every policy
// and checks it, filtered to the jobs eligible now, against the oracle.
// Bids include non-positive, equal and one-ulp-apart values, and the price
// ranges from the floor to the 1e12 ceiling.
//
// The kept queue ranks by the bid itself. Dividing by one shared price is
// monotone, so it can never invert two bids, but rounding can map bids one
// ulp apart, or a tiny bid and a zero bid at the ceiling, to the same
// effective priority; the old order then fell back to FIFO for that pair.
// Where that happens the test requires the bid order; everywhere else it
// requires the priced order exactly.
func TestKeptQueueMatchesOrderQueue(t *testing.T) {
	bids := []float64{
		-3, 0, 0, 1, 1, math.Nextafter(1, 2), 5, 5, math.Nextafter(5, 0),
		1.9, math.Nextafter(1.9, 2), math.Nextafter(math.Nextafter(1.9, 2), 2),
		5e-324, 1e-300, 1e300,
	}
	const floor, ceiling = 1.0, 1e12
	collapsed := 0
	for seed := int64(1); seed <= 40; seed++ {
		for _, policy := range Policies() {
			rng := rand.New(rand.NewSource(seed))
			s := &Scheduler{cfg: Config{Policy: policy}}
			var arrived, running []*Job // arrival order, as the queue used to be kept
			now, nextID := 0.0, 1
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(6); {
				case op <= 1 || len(running) == 0 && op == 2: // arrive
					j := &Job{ID: nextID, enqueuedAt: now, Spec: JobSpec{Bid: bids[rng.Intn(len(bids))]}}
					nextID++
					s.enqueue(j)
					arrived = append(arrived, j)
				case op == 2: // requeue, possibly behind a backoff window
					k := rng.Intn(len(running))
					j := running[k]
					running = slices.Delete(running, k, k+1)
					j.enqueuedAt = now
					j.notBefore = 0
					if rng.Intn(2) == 0 {
						j.notBefore = now + float64(1+rng.Intn(30))
					}
					s.enqueue(j)
					arrived = append(arrived, j)
				case op == 3 && len(s.queued) > 0: // admit the head or any queued job
					j := s.queued[rng.Intn(len(s.queued))]
					if hi := s.nextEligible(0, now); hi >= 0 && rng.Intn(2) == 0 {
						j = s.queued[hi]
					}
					s.dequeue(j)
					arrived = slices.DeleteFunc(arrived, func(q *Job) bool { return q == j })
					running = append(running, j)
				case op == 4: // time passes, sometimes not at all
					now += []float64{0, 1, 5, 17.5}[rng.Intn(4)]
				}

				price := floor * math.Pow(10, 12*rng.Float64())
				if rng.Intn(4) == 0 {
					price = ceiling
				}
				eligible := eligibleIn(arrived, now)
				kept := eligibleIn(s.queued, now)
				if want := orderQueue(policy, eligible, bidRank); !slices.Equal(kept, want) {
					t.Fatalf("seed %d %s step %d: kept queue %v, bid order %v", seed, policy, step, ids(kept), ids(want))
				}
				priced := orderQueue(policy, eligible, pricedPriority(price))
				if slices.Equal(kept, priced) {
					continue
				}
				if policy == PolicyFIFO || !collapses(eligible, price) {
					t.Fatalf("seed %d %s step %d price %g: kept queue %v, priced order %v",
						seed, policy, step, price, ids(kept), ids(priced))
				}
				collapsed++
			}
		}
	}
	if collapsed == 0 {
		t.Fatal("no step made the priced order collapse two bids; the one-ulp and ceiling cases went untested")
	}
	t.Logf("%d steps where the price collapsed distinct bids", collapsed)
}

func ids(jobs []*Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

// mapperCOP is a COP that only supplies a mapper; the admission scan never
// touches the rest.
type mapperCOP struct {
	cop.COP
	m cop.Mapper
}

func (c mapperCOP) Mapper() cop.Mapper { return c.m }

// newScanBroker builds a priority-backfill broker over the 12-node testbed
// with ten nodes leased to two running jobs and a 500-deep queue of jobs
// 3 to 8 nodes wide, so none fits the two free nodes and the backfill walk
// visits the whole queue.
func newScanBroker(tb testing.TB) (s *Scheduler, free []*topology.Node) {
	r := newRig(1)
	s, err := New(r.config(PolicyBackfill))
	if err != nil {
		tb.Fatalf("new: %v", err)
	}
	nodes := sortedByName(r.grid.Nodes())
	for i, part := range [][]*topology.Node{nodes[:4], nodes[4:10]} {
		j := &Job{ID: len(s.jobs) + 1, Spec: JobSpec{EstRuntime: float64(100 * (i + 1))}}
		if j.lease, err = s.leases.Grant("running", part); err != nil {
			tb.Fatalf("grant: %v", err)
		}
		s.jobs = append(s.jobs, j)
		s.setState(j, JobRunning)
	}
	for i := 0; i < 500; i++ {
		w := 3 + i%6
		j := &Job{
			ID: len(s.jobs) + 1, state: JobQueued,
			Spec: JobSpec{Width: w, Bid: float64(i % 7), EstRuntime: float64(50 + i)},
			cop:  mapperCOP{m: cop.GreedyMapper{Width: w}},
		}
		s.jobs = append(s.jobs, j)
		s.enqueue(j)
	}
	return s, s.leases.Free(nil, r.grid.Nodes())
}

var scanSink int

// BenchmarkAdmissionScan is one blocked-head admission attempt on the kept
// queue: head lookup, the EASY window, then the backfill walk.
func BenchmarkAdmissionScan(b *testing.B) {
	s, free := newScanBroker(b)
	avail := func(*topology.Node) float64 { return 1 }
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		hi := s.nextEligible(0, 0)
		shadow, extra := s.backfillWindow(0, len(free), s.needWidth(s.queued[hi]), s.runningJobs())
		i, _ := s.nextBackfill(0, hi+1, free, avail, shadow, extra)
		scanSink = i
	}
}

// BenchmarkAdmissionScanReference is the same attempt the way the broker
// used to make it: filter and sort the queue through orderQueue, scan
// every job for the running ones, then run every candidate's mapper with
// no placement memo.
func BenchmarkAdmissionScanReference(b *testing.B) {
	s, free := newScanBroker(b)
	avail := func(*topology.Node) float64 { return 1 }
	prio := pricedPriority(1.1) // one shared price: it divides every bid alike
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		order := orderQueue(s.cfg.Policy, eligibleIn(s.queued, 0), prio)
		shadow, extra := s.backfillWindow(0, len(free), s.needWidth(order[0]), runningScan(s))
		found := -1
		for i, cand := range order[1:] {
			nodes := cand.cop.Mapper().Map(free, avail)
			if len(nodes) < s.needWidth(cand) || (cand.Spec.EstRuntime > shadow && len(nodes) > extra) {
				continue
			}
			found = i + 1
			break
		}
		scanSink = found
	}
}
