// Package vgrid implements the virtual Grid abstraction the paper's
// conclusion previews ("our new Virtual Grid Application Development
// (VGrADS) project ... adds an abstraction layer called virtual Grids
// (vgrids) to the current Grid infrastructure"): an application asks for a
// resource aggregate — a cluster of nodes at one site, qualified by
// architecture, memory, speed and software constraints — and the vgrid
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

// Spec is a vgrid request: a cluster of MinNodes to MaxNodes nodes at one
// site sharing a LAN.
type Spec struct {
	Name string

	MinNodes int
	MaxNodes int // 0 = MinNodes

	Arch     topology.Arch // empty = any
	MinMemMB float64
	MinMHz   float64
	Software []string // packages that must be installed (GIS)
}

// VGrid is a bound virtual Grid: the concrete nodes backing a Spec.
type VGrid struct {
	Spec  Spec
	Nodes []*topology.Node
	// Rate is the selection score: the forecast lock-step aggregate
	// effective speed (node count x slowest node), in flop/s.
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

// Find binds the spec to the single site whose best eligible nodes give
// the highest lock-step rate, or returns an error when no site can satisfy
// it. Sites are visited in name order, so a tie goes to the first name.
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
