// Package metasched implements a contention-aware metascheduler over the
// emulated Grid: the resource broker that arbitrates a stream of competing
// GrADS applications, the regime the paper's SC2003 demonstrations ran in
// (multiple applications sharing the testbed simultaneously) and the one
// the GridSim / deadline-and-budget brokering literature studies.
//
// Jobs are submitted into a queue (FIFO, priority, or priority-backfill
// order, with priorities set by each job's bid),
// admitted against a shared GIS/NWS snapshot of the free pool, and each
// admitted job runs through its own application manager on an exclusive
// *lease* of nodes. Leases make ownership explicit: overlapping grants are
// rejected, crashed nodes are reclaimed out of live leases by a topology
// watcher, and preemption — triggered by a starving high-priority job — is
// negotiated with the rescheduler and executed through the existing SRS
// stop-and-restart path onto a smaller lease.
package metasched

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"grads/internal/simcore"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// Lease is an exclusive grant of a node set to one job.
type Lease struct {
	ID      int
	JobID   string
	Granted float64 // virtual time of the grant

	nodes []*topology.Node // sorted by name; shrinks on reclaim/preempt
}

// Nodes returns the currently leased nodes, sorted by name.
func (l *Lease) Nodes() []*topology.Node {
	return append([]*topology.Node(nil), l.nodes...)
}

// Size returns how many nodes the lease currently holds.
func (l *Lease) Size() int { return len(l.nodes) }

// LeaseManager tracks per-node allocation for the metascheduler: which
// lease owns each node, the free remainder of any pool, and the busy
// node-seconds that leases have accumulated (the utilization numerator).
// A topology watcher reclaims crashed nodes out of live leases the moment
// they go down; a recovered node returns to the free pool, not to the lease
// it was reclaimed from.
type LeaseManager struct {
	sim  *simcore.Sim
	grid *topology.Grid

	nextID int
	leases []*Lease // live leases by ID: IDs only grow, so Grant appends
	owner  map[*topology.Node]*Lease

	// Utilization accounting: leased-node integral over time.
	leasedNow  int
	lastChange float64
	busy       float64

	reclaimed   int
	unsubscribe func()
}

// NewLeaseManager creates a manager over grid and subscribes its crash
// watcher.
func NewLeaseManager(sim *simcore.Sim, grid *topology.Grid) *LeaseManager {
	m := &LeaseManager{
		sim:   sim,
		grid:  grid,
		owner: make(map[*topology.Node]*Lease),
	}
	m.unsubscribe = grid.OnNodeStateChange(func(n *topology.Node, down bool) {
		if down {
			m.reclaim(n)
		}
	})
	return m
}

// Close unsubscribes the crash watcher.
func (m *LeaseManager) Close() {
	if m.unsubscribe != nil {
		m.unsubscribe()
		m.unsubscribe = nil
	}
}

// BusyNodeSeconds returns the leased-node time integral up to now (the
// utilization numerator: node-seconds under lease).
func (m *LeaseManager) BusyNodeSeconds() float64 {
	m.account()
	return m.busy
}

// account folds the elapsed interval into the busy integral.
func (m *LeaseManager) account() {
	now := m.sim.Now()
	m.busy += float64(m.leasedNow) * (now - m.lastChange)
	m.lastChange = now
}

// Grant leases nodes exclusively to jobID. It rejects an empty set, a set
// containing a down node, and any overlap with an existing lease — resource
// ownership is explicit, so a double-grant is a broker bug, not a race to
// be tolerated.
func (m *LeaseManager) Grant(jobID string, nodes []*topology.Node) (*Lease, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("metasched: empty lease request for %s", jobID)
	}
	for _, n := range nodes {
		if n.Down() {
			return nil, fmt.Errorf("metasched: node %s is down", n.Name())
		}
		if holder := m.owner[n]; holder != nil {
			return nil, fmt.Errorf("metasched: node %s already leased to %s", n.Name(), holder.JobID)
		}
	}
	m.account()
	m.nextID++
	l := &Lease{ID: m.nextID, JobID: jobID, Granted: m.sim.Now(), nodes: sortedByName(nodes)}
	m.leases = append(m.leases, l)
	for _, n := range l.nodes {
		m.owner[n] = l
	}
	m.leasedNow += len(l.nodes)
	m.emitLease(telemetry.EvLeaseGrant, l, len(l.nodes))
	return l, nil
}

// Release returns every node of the lease to the free pool and retires it.
// Releasing an unknown (already released) lease is a no-op.
func (m *LeaseManager) Release(l *Lease) {
	if l == nil {
		return
	}
	i, ok := m.find(l)
	if !ok {
		return
	}
	m.account()
	for _, n := range l.nodes {
		delete(m.owner, n)
	}
	m.leasedNow -= len(l.nodes)
	m.emitLease(telemetry.EvLeaseRelease, l, len(l.nodes))
	l.nodes = nil
	m.leases = slices.Delete(m.leases, i, i+1)
}

// find returns the index of a live lease in m.leases.
func (m *LeaseManager) find(l *Lease) (int, bool) {
	return slices.BinarySearchFunc(m.leases, l.ID, func(x *Lease, id int) int { return cmp.Compare(x.ID, id) })
}

// Shrink reduces the lease to the keep subset (members of keep that are not
// in the lease are ignored) and returns the freed nodes. This is the
// preemption mechanic: the victim's next segment maps over the kept
// remainder while the freed nodes go back to the broker.
func (m *LeaseManager) Shrink(l *Lease, keep []*topology.Node) []*topology.Node {
	if l == nil {
		return nil
	}
	if _, ok := m.find(l); !ok {
		return nil
	}
	keepSet := make(map[*topology.Node]bool, len(keep))
	for _, n := range keep {
		keepSet[n] = true
	}
	var kept, freed []*topology.Node
	for _, n := range l.nodes {
		if keepSet[n] {
			kept = append(kept, n)
		} else {
			freed = append(freed, n)
		}
	}
	if len(freed) == 0 {
		return nil
	}
	m.account()
	for _, n := range freed {
		delete(m.owner, n)
	}
	m.leasedNow -= len(freed)
	l.nodes = kept
	m.emitLease(telemetry.EvLeaseRelease, l, len(freed))
	return freed
}

// reclaim pulls a crashed node out of its lease, if any.
func (m *LeaseManager) reclaim(n *topology.Node) {
	l := m.owner[n]
	if l == nil {
		return
	}
	m.account()
	delete(m.owner, n)
	m.leasedNow--
	for i, ln := range l.nodes {
		if ln == n {
			l.nodes = append(l.nodes[:i], l.nodes[i+1:]...)
			break
		}
	}
	m.reclaimed++
	if tel := m.sim.Telemetry(); tel != nil {
		tel.Counter("lease", "reclaims").Inc()
		tel.Gauge("lease", "leased_nodes").Set(float64(m.leasedNow))
		tel.Emit(telemetry.Event{
			Type: telemetry.EvLeaseReclaim, Comp: "metasched", Name: n.Name(),
			Args: []telemetry.Arg{
				telemetry.I("lease", l.ID),
				telemetry.S("job", l.JobID),
				telemetry.I("remaining", len(l.nodes)),
			},
		})
	}
}

// Audit structurally checks the ledger: every leased node is owned by
// exactly the lease that lists it, no live lease holds a down node (the
// crash watcher reclaims synchronously, so one ever appearing means a
// reclaim was lost), and the leased-node gauge equals both the ownership
// map and the sum of lease sizes. The chaos soak calls it every tick; any
// error is an accounting bug, not a tolerable transient. Leases are walked
// by ID and their nodes by name, so with several violations the error is
// always the same one.
func (m *LeaseManager) Audit() error {
	total := 0
	for _, l := range m.leases {
		total += len(l.nodes)
		for _, n := range l.nodes {
			if m.owner[n] != l {
				return fmt.Errorf("lease audit: node %s listed by lease %d but owned by another", n.Name(), l.ID)
			}
			if n.Down() {
				return fmt.Errorf("lease audit: down node %s still held by lease %d (reclaim lost)", n.Name(), l.ID)
			}
		}
	}
	if total != len(m.owner) {
		return fmt.Errorf("lease audit: %d nodes in lease sets but %d ownership entries", total, len(m.owner))
	}
	if total != m.leasedNow {
		return fmt.Errorf("lease audit: %d nodes in lease sets but leased-node gauge reads %d", total, m.leasedNow)
	}
	return nil
}

// Free appends the live, unleased nodes of pool to dst, in pool order, and
// returns the extended slice. The pool must already be sorted by name (a
// GIS answer or Grid.Nodes is): Free keeps its order rather than sorting,
// so the result is name-sorted exactly when the pool is.
func (m *LeaseManager) Free(dst, pool []*topology.Node) []*topology.Node {
	for _, n := range pool {
		if !n.Down() && m.owner[n] == nil {
			dst = append(dst, n)
		}
	}
	return dst
}

// emitLease publishes a lease transition plus the leased-nodes gauge.
func (m *LeaseManager) emitLease(ev telemetry.EventType, l *Lease, count int) {
	tel := m.sim.Telemetry()
	if tel == nil {
		return
	}
	switch ev {
	case telemetry.EvLeaseGrant:
		tel.Counter("lease", "grants").Inc()
	case telemetry.EvLeaseRelease:
		tel.Counter("lease", "releases").Inc()
	}
	tel.Gauge("lease", "leased_nodes").Set(float64(m.leasedNow))
	tel.Emit(telemetry.Event{
		Type: ev, Comp: "metasched", Name: l.JobID,
		Args: []telemetry.Arg{
			telemetry.I("lease", l.ID),
			telemetry.I("nodes", count),
		},
	})
}

// sortedByName returns a name-sorted copy of nodes.
func sortedByName(nodes []*topology.Node) []*topology.Node {
	out := slices.Clone(nodes)
	slices.SortFunc(out, func(a, b *topology.Node) int { return strings.Compare(a.Name(), b.Name()) })
	return out
}
