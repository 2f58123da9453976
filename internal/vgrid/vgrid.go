// Package vgrid implements the virtual Grid abstraction the paper's
// conclusion previews ("our new Virtual Grid Application Development
// (VGrADS) project ... adds an abstraction layer called virtual Grids
// (vgrids) to the current Grid infrastructure"): an application asks for a
// *class* of resource aggregate — a loose bag, a tight bag, or a cluster,
// qualified by architecture, memory and speed constraints — and the vgrid
// finder binds it to the best concrete node set currently available,
// using GIS capability data and NWS forecasts. The GrADS schedulers and
// reschedulers then operate inside the returned vgrid.
package vgrid

import (
	"fmt"
	"math"
	"sort"

	"grads/internal/gis"
	"grads/internal/nws"
	"grads/internal/topology"
)

// Kind classifies the connectivity an application needs from its vgrid.
type Kind int

// Vgrid kinds, from weakest to strongest connectivity guarantee.
const (
	// LooseBag: any nodes anywhere (throughput-oriented workloads).
	LooseBag Kind = iota
	// TightBag: nodes whose pairwise one-way latency stays under the
	// spec's MaxLatency (loosely coupled parallel jobs).
	TightBag
	// Cluster: nodes of a single site sharing a LAN (tightly coupled MPI).
	Cluster
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case LooseBag:
		return "LooseBag"
	case TightBag:
		return "TightBag"
	case Cluster:
		return "Cluster"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Spec is a vgrid request.
type Spec struct {
	Name string
	Kind Kind

	MinNodes int
	MaxNodes int // 0 = MinNodes

	Arch       topology.Arch // empty = any
	MinMemMB   float64
	MinMHz     float64
	MaxLatency float64  // TightBag only; 0 = 50 ms
	Software   []string // packages that must be installed (GIS)
}

// VGrid is a bound virtual Grid: the concrete nodes backing a Spec.
type VGrid struct {
	Spec  Spec
	Nodes []*topology.Node
	// Rate is the selection score: the forecast aggregate effective speed
	// (lock-step for Cluster/TightBag, additive for LooseBag), in flop/s.
	Rate float64
}

// Finder binds specs to concrete resources.
type Finder struct {
	Grid    *topology.Grid
	GIS     *gis.Service
	Weather *nws.Service
}

// NewFinder creates a Finder. GIS and Weather may be nil (no software
// filtering; instantaneous CPU availability).
func NewFinder(grid *topology.Grid, g *gis.Service, w *nws.Service) *Finder {
	return &Finder{Grid: grid, GIS: g, Weather: w}
}

// avail returns a node's forecast availability.
func (f *Finder) avail(n *topology.Node) float64 {
	if f.Weather != nil {
		return f.Weather.CPUForecast(n.Name())
	}
	return n.CPU.Availability()
}

// speed is a node's forecast effective speed.
func (f *Finder) speed(n *topology.Node) float64 {
	return n.Spec.Flops() * f.avail(n)
}

// eligible applies the node-local constraints.
func (f *Finder) eligible(n *topology.Node, s Spec) bool {
	if n.Down() {
		return false
	}
	if s.Arch != "" && n.Spec.Arch != s.Arch {
		return false
	}
	if n.Spec.MemMB < s.MinMemMB || n.Spec.MHz < s.MinMHz {
		return false
	}
	for _, pkg := range s.Software {
		if f.GIS == nil || !f.GIS.HasSoftware(n.Name(), pkg) {
			return false
		}
	}
	return true
}

// Find binds the spec to the best matching concrete node set, or returns
// an error when no aggregate satisfies it.
func (f *Finder) Find(s Spec) (*VGrid, error) {
	if s.MinNodes <= 0 {
		return nil, fmt.Errorf("vgrid: %s: MinNodes must be positive", s.Name)
	}
	max := s.MaxNodes
	if max < s.MinNodes {
		max = s.MinNodes
	}
	var pool []*topology.Node
	for _, n := range f.Grid.Nodes() {
		if f.eligible(n, s) {
			pool = append(pool, n)
		}
	}
	if len(pool) < s.MinNodes {
		return nil, fmt.Errorf("vgrid: %s: only %d eligible nodes, need %d",
			s.Name, len(pool), s.MinNodes)
	}
	switch s.Kind {
	case LooseBag:
		return f.bindLooseBag(s, pool, max)
	case TightBag:
		return f.bindTightBag(s, pool, max)
	case Cluster:
		return f.bindCluster(s, pool, max)
	}
	return nil, fmt.Errorf("vgrid: %s: unknown kind %v", s.Name, s.Kind)
}

// bindLooseBag takes the fastest nodes anywhere; score is additive.
func (f *Finder) bindLooseBag(s Spec, pool []*topology.Node, max int) (*VGrid, error) {
	sortBySpeed(pool, f.speed)
	if len(pool) > max {
		pool = pool[:max]
	}
	rate := 0.0
	for _, n := range pool {
		rate += f.speed(n)
	}
	return &VGrid{Spec: s, Nodes: pool, Rate: rate}, nil
}

// bindCluster picks the single site whose best nodes give the highest
// lock-step rate; sites are visited in name order, so a tie goes to the
// first name.
func (f *Finder) bindCluster(s Spec, pool []*topology.Node, max int) (*VGrid, error) {
	bySite := groupBySite(pool)
	var best []*topology.Node
	bestRate := -1.0
	for _, site := range f.Grid.Sites() {
		nodes := bySite[site.Name]
		if len(nodes) < s.MinNodes {
			continue
		}
		sortBySpeed(nodes, f.speed)
		if len(nodes) > max {
			nodes = nodes[:max]
		}
		rate := lockstep(nodes, f.speed)
		if rate > bestRate {
			bestRate, best = rate, nodes
		}
	}
	if best == nil {
		return nil, fmt.Errorf("vgrid: %s: no single site has %d eligible nodes", s.Name, s.MinNodes)
	}
	return &VGrid{Spec: s, Nodes: best, Rate: bestRate}, nil
}

// bindTightBag grows a latency-bounded site group around each site and
// picks the group with the best lock-step rate.
func (f *Finder) bindTightBag(s Spec, pool []*topology.Node, max int) (*VGrid, error) {
	maxLat := s.MaxLatency
	if maxLat <= 0 {
		maxLat = 0.050
	}
	bySite := groupBySite(pool)
	siteNames := make([]string, 0, len(bySite))
	for name := range bySite {
		siteNames = append(siteNames, name)
	}
	sort.Strings(siteNames)

	var best []*topology.Node
	bestRate := -1.0
	for _, center := range siteNames {
		// Candidate group: the center site plus every site reachable
		// within the latency bound (with pairwise checks).
		group := []string{center}
		for _, other := range siteNames {
			if other == center {
				continue
			}
			ok := true
			for _, member := range group {
				lat := f.siteLatency(member, other)
				if math.IsInf(lat, 1) || lat > maxLat {
					ok = false
					break
				}
			}
			if ok {
				group = append(group, other)
			}
		}
		var nodes []*topology.Node
		for _, site := range group {
			nodes = append(nodes, bySite[site]...)
		}
		if len(nodes) < s.MinNodes {
			continue
		}
		sortBySpeed(nodes, f.speed)
		if len(nodes) > max {
			nodes = nodes[:max]
		}
		rate := lockstep(nodes, f.speed)
		if rate > bestRate {
			bestRate, best = rate, nodes
		}
	}
	if best == nil {
		return nil, fmt.Errorf("vgrid: %s: no latency-bounded group has %d eligible nodes", s.Name, s.MinNodes)
	}
	return &VGrid{Spec: s, Nodes: best, Rate: bestRate}, nil
}

// siteLatency returns the one-way latency between two sites, +Inf when
// unconnected.
func (f *Finder) siteLatency(a, b string) float64 {
	if a == b {
		return f.Grid.Site(a).LAN.Latency()
	}
	if f.Weather != nil {
		if lat := f.Weather.LatencyForecast(a, b); lat > 0 {
			return lat
		}
	}
	w := f.Grid.WAN(a, b)
	if w == nil {
		return math.Inf(1)
	}
	return w.Latency()
}

// groupBySite partitions nodes by site name.
func groupBySite(pool []*topology.Node) map[string][]*topology.Node {
	out := map[string][]*topology.Node{}
	for _, n := range pool {
		out[n.Site().Name] = append(out[n.Site().Name], n)
	}
	return out
}

// sortBySpeed orders nodes by descending speed, name-stable.
func sortBySpeed(ns []*topology.Node, speed func(*topology.Node) float64) {
	sort.SliceStable(ns, func(i, j int) bool {
		si, sj := speed(ns[i]), speed(ns[j])
		if si != sj {
			return si > sj
		}
		return ns[i].Name() < ns[j].Name()
	})
}

// lockstep is count x slowest speed.
func lockstep(ns []*topology.Node, speed func(*topology.Node) float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slowest := math.Inf(1)
	for _, n := range ns {
		if s := speed(n); s < slowest {
			slowest = s
		}
	}
	return slowest * float64(len(ns))
}
