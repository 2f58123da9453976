// Package ibp models the Internet Backplane Protocol storage the SRS
// checkpointing library uses: storage depots located on grid nodes, with
// writes and reads paying local disk cost plus any network transfer between
// the requesting node and the depot.
//
// The asymmetry the paper reports in Figure 3 — checkpoint *writes* are
// insignificant because they go to IBP depots on local disks, while
// checkpoint *reads* dominate migration cost because they cross the
// Internet — falls out of this model directly.
package ibp

import (
	"fmt"
	"slices"
	"strings"

	"grads/internal/faultinject"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// ErrDepotDown is returned by depot operations whose hosting node is down.
// It wraps faultinject.ErrUnavailable so callers' retry policies treat a
// crashed depot as transient — the node may recover, or SRS may fall back
// to a replica on another depot.
var ErrDepotDown = fmt.Errorf("%w: ibp depot node down", faultinject.ErrUnavailable)

// ErrCorrupt is returned when a read touches a blob whose stored bits are
// corrupt. It does NOT wrap ErrUnavailable: re-reading the same depot will
// never heal bit rot, so retry loops must not burn their budget on it —
// the caller falls back to a replica or an older generation instead.
var ErrCorrupt = fmt.Errorf("ibp: blob corrupt")

// DefaultDiskRate is the local disk throughput of a depot in bytes/s
// (2003-era IDE disk).
const DefaultDiskRate = 40e6

// blob is one stored allocation: its size, the checksum the writer
// declared (0 when the writer did not checksum), and whether the stored
// bits have rotted — either an injected bit-rot event or a partial write
// during a corruption window.
type blob struct {
	bytes   float64
	sum     uint64
	corrupt bool
}

// Depot is a storage allocation server on one node.
type Depot struct {
	node       *topology.Node
	diskRate   float64
	blobs      map[string]blob // key -> stored allocation
	corrupting bool            // writes land partially (torn) while set
}

// System is the set of IBP depots on an emulated Grid.
type System struct {
	sim    *simcore.Sim
	grid   *topology.Grid
	depots map[string]*Depot // node name -> depot
	health *faultinject.Health

	// byName is the depot nodes sorted by name, built on first use after
	// an AddDepot.
	byName []*topology.Node
}

// SetHealth attaches the chaos-layer availability handle for the IBP
// service as a whole (outage/lag events target it); individual depot
// failures are modeled by their hosting node going down.
func (s *System) SetHealth(h *faultinject.Health) { s.health = h }

// check gates a depot operation: the service must be up and the depot's
// hosting node alive.
func (s *System) check(p *simcore.Proc, d *Depot) error {
	if err := s.health.Check(p); err != nil {
		return err
	}
	if d.node.Down() {
		return fmt.Errorf("%w: %s", ErrDepotDown, d.node.Name())
	}
	return nil
}

// New creates an IBP system with no depots.
func New(sim *simcore.Sim, grid *topology.Grid) *System {
	return &System{sim: sim, grid: grid, depots: make(map[string]*Depot)}
}

// AddDepot creates a depot on a node with the given disk rate (bytes/s);
// a non-positive rate selects DefaultDiskRate.
func (s *System) AddDepot(node *topology.Node, diskRate float64) *Depot {
	if diskRate <= 0 {
		diskRate = DefaultDiskRate
	}
	d := &Depot{node: node, diskRate: diskRate, blobs: make(map[string]blob)}
	s.depots[node.Name()] = d
	s.byName = nil
	return d
}

// AddDepotsEverywhere creates a default depot on every grid node that lacks
// one, mirroring "IBP storage on local disks".
func (s *System) AddDepotsEverywhere() {
	for _, n := range s.grid.Nodes() {
		if s.depots[n.Name()] == nil {
			s.AddDepot(n, 0)
		}
	}
}

// Depot returns the depot on the named node, or nil.
func (s *System) Depot(node string) *Depot { return s.depots[node] }

// StoreSum writes bytes under key into the depot on depotNode, called from
// a process running on fromNode. The caller pays network transfer (if the
// depot is remote) plus disk write time; storing an existing key replaces
// it. The writer-declared checksum sum is recorded alongside the blob, so
// readers can verify integrity (Verify) before paying for the read. A depot
// inside a corruption window tears the write: the blob lands but is marked
// corrupt.
func (s *System) StoreSum(p *simcore.Proc, from, depotNode *topology.Node, key string, bytes float64, sum uint64) error {
	d := s.depots[depotNode.Name()]
	if d == nil {
		return fmt.Errorf("ibp: no depot on %q", depotNode.Name())
	}
	if bytes < 0 {
		return fmt.Errorf("ibp: negative size for %q", key)
	}
	if err := s.check(p, d); err != nil {
		return err
	}
	if from != depotNode {
		if _, err := s.grid.Net.TransferLabeled(p, s.grid.Route(from, depotNode), bytes, from.Name(), depotNode.Name()); err != nil {
			return err
		}
	}
	// The depot may have crashed while the data was in flight.
	if d.node.Down() {
		return fmt.Errorf("%w: %s", ErrDepotDown, d.node.Name())
	}
	if err := p.Sleep(bytes / d.diskRate); err != nil {
		return err
	}
	d.blobs[key] = blob{bytes: bytes, sum: sum, corrupt: d.corrupting}
	return nil
}

// RetrievePartial reads bytes of the blob under key (a byte range, for
// block-cyclic redistribution where each reader takes a slice) from the
// depot on depotNode into a process on toNode. It pays disk and network
// proportional to the slice.
func (s *System) RetrievePartial(p *simcore.Proc, depotNode, to *topology.Node, key string, bytes float64) (float64, error) {
	d := s.depots[depotNode.Name()]
	if d == nil {
		return 0, fmt.Errorf("ibp: no depot on %q", depotNode.Name())
	}
	b, ok := d.blobs[key]
	if !ok {
		return 0, fmt.Errorf("ibp: key %q not in depot on %q", key, depotNode.Name())
	}
	if b.corrupt {
		return 0, fmt.Errorf("%w: %q on %q", ErrCorrupt, key, depotNode.Name())
	}
	if bytes > b.bytes {
		bytes = b.bytes
	}
	if bytes <= 0 {
		return 0, nil
	}
	if err := s.check(p, d); err != nil {
		return 0, err
	}
	if err := p.Sleep(bytes / d.diskRate); err != nil {
		return 0, err
	}
	if depotNode != to {
		if _, err := s.grid.Net.TransferLabeled(p, s.grid.Route(depotNode, to), bytes, depotNode.Name(), to.Name()); err != nil {
			return 0, err
		}
	}
	return bytes, nil
}

// ReplicaFor returns the depot node that should hold a replica of data
// whose primary depot is on primary: the first alive depot-bearing node
// other than primary, preferring primary's own site (a cheap LAN copy), in
// sorted node order so the choice is deterministic. It returns nil when no
// other live depot exists.
func (s *System) ReplicaFor(primary *topology.Node) *topology.Node {
	if s.byName == nil {
		s.byName = make([]*topology.Node, 0, len(s.depots))
		for _, d := range s.depots {
			s.byName = append(s.byName, d.node)
		}
		slices.SortFunc(s.byName, func(a, b *topology.Node) int { return strings.Compare(a.Name(), b.Name()) })
	}
	var fallback *topology.Node
	for _, n := range s.byName {
		if n == primary || n.Down() {
			continue
		}
		if n.Site() == primary.Site() {
			return n
		}
		if fallback == nil {
			fallback = n
		}
	}
	return fallback
}

// Size returns the stored size of key on a depot without any cost, or
// ok=false if absent (metadata lookups are negligible next to data motion).
func (s *System) Size(depotNode, key string) (float64, bool) {
	d := s.depots[depotNode]
	if d == nil {
		return 0, false
	}
	b, ok := d.blobs[key]
	return b.bytes, ok
}

// Verify reports whether key on depotNode exists, is not corrupt, and
// carries the expected checksum. Like Size it is a free metadata check —
// the reader verifies before paying disk and network for the data.
func (s *System) Verify(depotNode, key string, sum uint64) bool {
	d := s.depots[depotNode]
	if d == nil {
		return false
	}
	b, ok := d.blobs[key]
	return ok && !b.corrupt && b.sum == sum
}

// SetCorrupting opens or closes a partial-write window on the depot of
// node: while open, every write lands torn (marked corrupt). It reports
// whether the node has a depot.
func (s *System) SetCorrupting(node string, on bool) bool {
	d := s.depots[node]
	if d == nil {
		return false
	}
	d.corrupting = on
	return true
}

// CorruptAll rots every blob currently resident on the depot of node (the
// bit-rot half of a ckptcorrupt fault) and returns how many it touched,
// or -1 when the node has no depot.
func (s *System) CorruptAll(node string) int {
	d := s.depots[node]
	if d == nil {
		return -1
	}
	n := 0
	for k, b := range d.blobs {
		if !b.corrupt {
			b.corrupt = true
			d.blobs[k] = b
			n++
		}
	}
	return n
}

// Delete removes key from the depot on depotNode, if present.
func (s *System) Delete(depotNode, key string) {
	if d := s.depots[depotNode]; d != nil {
		delete(d.blobs, key)
	}
}
