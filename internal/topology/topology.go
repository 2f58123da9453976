// Package topology models the emulated Grid's resources: nodes with
// architecture, clock rate and cache geometry; sites with LANs; WAN links
// between sites; and the routing between any two nodes. It also provides
// builders for the testbeds used in the paper's experiments (the GrADS
// MacroGrid, the §4.1 QR testbed, and the §4.2 MicroGrid virtual Grid).
package topology

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"grads/internal/cpusim"
	"grads/internal/netsim"
	"grads/internal/simcore"
)

// Arch identifies a processor architecture. The binder uses it to select
// per-architecture compilation, reproducing the paper's IA-32/IA-64
// heterogeneity support.
type Arch string

// Architectures present in the GrADS testbeds.
const (
	ArchIA32 Arch = "ia32"
	ArchIA64 Arch = "ia64"
)

// CacheConfig describes a node's cache geometry, consumed by the
// memory-reuse-distance performance model.
type CacheConfig struct {
	L1KB      int // L1 data cache size in KiB
	L2KB      int // unified L2 size in KiB
	LineBytes int // cache line size
}

// NodeSpec is the static description of a compute node.
type NodeSpec struct {
	Name          string
	Site          string
	Arch          Arch
	MHz           float64 // core clock
	FlopsPerCycle float64 // sustained double-precision flops per cycle
	MemMB         float64
	Cache         CacheConfig
}

// Flops returns the node's sustained floating-point rate in flop/s.
func (sp NodeSpec) Flops() float64 { return sp.MHz * 1e6 * sp.FlopsPerCycle }

// Node is a live node in an emulated Grid: its spec plus its CPU model.
type Node struct {
	Spec NodeSpec
	CPU  *cpusim.CPU
	site *Site
	down bool
}

// Name returns the node name.
func (n *Node) Name() string { return n.Spec.Name }

// Site returns the site the node belongs to.
func (n *Node) Site() *Site { return n.site }

// Down reports whether the node has failed (fault-tolerance extension:
// mappers, GIS queries and vgrid selection all skip down nodes).
func (n *Node) Down() bool { return n.down }

// SetDown marks the node failed or recovered. Killing the processes that
// were running on it is the responsibility of the layer that owns them
// (mpi.World.FailNode).
func (n *Node) SetDown(down bool) { n.down = down }

// Site is a cluster of nodes sharing a LAN.
type Site struct {
	Name  string
	LAN   *netsim.Link
	nodes []*Node
}

// Nodes returns the site's nodes in creation order.
func (s *Site) Nodes() []*Node { return s.nodes }

// Grid assembles nodes, sites and links over a simulation kernel. Like
// the kernel, it is used from one goroutine at a time: even Nodes may
// rebuild its index.
type Grid struct {
	Sim *simcore.Sim
	Net *netsim.Network

	sites  map[string]*Site
	nodes  map[string]*Node
	byName []*Node                 // every node, sorted by name; Nodes rebuilds it after AddNode
	wan    map[string]*netsim.Link // key: siteA + "|" + siteB, lexicographic

	watchers    []nodeWatcher
	nextWatchID int
}

// nodeWatcher is one OnNodeStateChange subscription.
type nodeWatcher struct {
	id int
	fn func(*Node, bool)
}

// NewGrid creates an empty Grid bound to sim.
func NewGrid(sim *simcore.Sim) *Grid {
	return &Grid{
		Sim:   sim,
		Net:   netsim.New(sim),
		sites: make(map[string]*Site),
		nodes: make(map[string]*Node),
		wan:   make(map[string]*netsim.Link),
	}
}

// AddSite creates a site with a LAN of the given bandwidth (bytes/s) and
// latency (seconds). It panics on duplicates.
func (g *Grid) AddSite(name string, lanBW, lanLat float64) *Site {
	if _, dup := g.sites[name]; dup {
		panic(fmt.Sprintf("topology: duplicate site %q", name))
	}
	s := &Site{
		Name: name,
		LAN:  g.Net.AddLink("lan:"+name, lanBW, lanLat),
	}
	g.sites[name] = s
	return s
}

// AddNode instantiates a node from its spec, attaching a CPU model.
// The spec's Site must already exist.
func (g *Grid) AddNode(sp NodeSpec) *Node {
	site, ok := g.sites[sp.Site]
	if !ok {
		panic(fmt.Sprintf("topology: node %q references unknown site %q", sp.Name, sp.Site))
	}
	if _, dup := g.nodes[sp.Name]; dup {
		panic(fmt.Sprintf("topology: duplicate node %q", sp.Name))
	}
	if sp.FlopsPerCycle <= 0 {
		sp.FlopsPerCycle = 0.5
	}
	if sp.MHz <= 0 {
		sp.MHz = 500
	}
	n := &Node{
		Spec: sp,
		CPU:  cpusim.New(g.Sim, sp.Name, sp.Flops()),
		site: site,
	}
	g.nodes[sp.Name] = n
	site.nodes = append(site.nodes, n)
	return n
}

// Connect creates a WAN link between two sites with the given bandwidth
// (bytes/s) and one-way latency (seconds). Reconnecting the same pair
// panics.
func (g *Grid) Connect(siteA, siteB string, bw, lat float64) *netsim.Link {
	if _, ok := g.sites[siteA]; !ok {
		panic(fmt.Sprintf("topology: unknown site %q", siteA))
	}
	if _, ok := g.sites[siteB]; !ok {
		panic(fmt.Sprintf("topology: unknown site %q", siteB))
	}
	key := wanKey(siteA, siteB)
	if _, dup := g.wan[key]; dup {
		panic(fmt.Sprintf("topology: duplicate WAN link %s", key))
	}
	l := g.Net.AddLink("wan:"+key, bw, lat)
	g.wan[key] = l
	return l
}

func wanKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Node returns the named node, or nil.
func (g *Grid) Node(name string) *Node { return g.nodes[name] }

// Site returns the named site, or nil.
func (g *Grid) Site(name string) *Site { return g.sites[name] }

// Nodes returns all nodes sorted by name (deterministic iteration order).
// The slice is the grid's own index: callers must not sort it or write
// into it. Its capacity is capped at its length, so appending to it copies.
// The first call after an AddNode builds a fresh index, once for a whole
// batch of additions, so a slice taken earlier keeps its contents.
func (g *Grid) Nodes() []*Node {
	if len(g.byName) != len(g.nodes) {
		idx := make([]*Node, 0, len(g.nodes))
		for _, n := range g.nodes {
			idx = append(idx, n)
		}
		slices.SortFunc(idx, func(a, b *Node) int { return strings.Compare(a.Spec.Name, b.Spec.Name) })
		g.byName = idx
	}
	return g.byName[:len(g.byName):len(g.byName)]
}

// Sites returns all sites sorted by name.
func (g *Grid) Sites() []*Site {
	out := make([]*Site, 0, len(g.sites))
	for _, s := range g.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WAN returns the WAN link between two sites, or nil if they are not
// directly connected.
func (g *Grid) WAN(siteA, siteB string) *netsim.Link { return g.wan[wanKey(siteA, siteB)] }

// Route returns the link sequence a message from a to b traverses:
// nothing within a node, the site LAN within a site, and
// LAN–WAN–LAN across sites. It panics if the sites are not connected.
func (g *Grid) Route(a, b *Node) []*netsim.Link {
	if a == b {
		return nil
	}
	if a.site == b.site {
		return []*netsim.Link{a.site.LAN}
	}
	w := g.WAN(a.site.Name, b.site.Name)
	if w == nil {
		panic(fmt.Sprintf("topology: no WAN link between %q and %q", a.site.Name, b.site.Name))
	}
	return []*netsim.Link{a.site.LAN, w, b.site.LAN}
}

// TransferTimeEstimate predicts moving bytes from a to b under current
// network conditions.
func (g *Grid) TransferTimeEstimate(a, b *Node, bytes float64) float64 {
	return g.Net.TransferTimeEstimate(g.Route(a, b), bytes)
}

// OnNodeStateChange registers a callback invoked (synchronously, in
// registration order) whenever SetNodeDown changes a node's state. The
// returned function removes the subscription. Layers that own processes on
// nodes (mpi.World) subscribe to learn about crashes injected by the chaos
// layer.
func (g *Grid) OnNodeStateChange(fn func(n *Node, down bool)) (unsubscribe func()) {
	g.nextWatchID++
	id := g.nextWatchID
	g.watchers = append(g.watchers, nodeWatcher{id: id, fn: fn})
	return func() {
		for i, w := range g.watchers {
			if w.id == id {
				g.watchers = append(g.watchers[:i], g.watchers[i+1:]...)
				return
			}
		}
	}
}

// SetNodeDown fails or recovers a node grid-wide: the node flag flips (so
// GIS queries, mappers and vgrid selection skip it), active network flows
// labeled with the node as an endpoint are killed, and every registered
// watcher is notified. It reports whether the named node exists; calls that
// do not change the state are no-ops.
func (g *Grid) SetNodeDown(name string, down bool) bool {
	n := g.nodes[name]
	if n == nil {
		return false
	}
	if n.down == down {
		return true
	}
	n.down = down
	// Watchers first: layers owning processes on the node (mpi.World) kill
	// them with their own node-loss cause. The endpoint sweep then catches
	// any remaining flows labeled with the node (IBP depot traffic, staging).
	for _, w := range append([]nodeWatcher(nil), g.watchers...) {
		w.fn(n, down)
	}
	if down {
		g.Net.FailEndpoint(name, netsim.ErrEndpointDown)
	}
	return true
}
