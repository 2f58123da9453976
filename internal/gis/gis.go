// Package gis implements the GrADS Information Service (the MDS analog in
// the paper): a registry of Grid resources and of the software installed on
// them. The scheduler queries it for candidate resources; the distributed
// binder queries it to locate the local binder code and application
// libraries on each scheduled node (§2 of the paper).
package gis

import (
	"fmt"
	"sort"

	"grads/internal/faultinject"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// QueryDelay is the virtual-time cost a process pays per GIS query,
// modeling the directory-service round trip.
const QueryDelay = 0.050

// Service is a Grid Information Service over one emulated Grid.
type Service struct {
	sim  *simcore.Sim
	grid *topology.Grid

	// software maps node name -> package name -> install path.
	software map[string]map[string]string
	queries  int
	health   *faultinject.Health
}

// SetHealth attaches the chaos-layer availability handle; every query is
// gated on it. A nil health (the default) is always available.
func (s *Service) SetHealth(h *faultinject.Health) { s.health = h }

// New creates a GIS over grid.
func New(sim *simcore.Sim, grid *topology.Grid) *Service {
	return &Service{
		sim:      sim,
		grid:     grid,
		software: make(map[string]map[string]string),
	}
}

// RegisterSoftware records that a package is installed at path on a node.
func (s *Service) RegisterSoftware(node, pkg, path string) {
	m := s.software[node]
	if m == nil {
		m = make(map[string]string)
		s.software[node] = m
	}
	m[pkg] = path
}

// RegisterSoftwareEverywhere records a package on every node of the grid
// (convenience for preinstalled libraries such as the local binder).
func (s *Service) RegisterSoftwareEverywhere(pkg, path string) {
	for _, n := range s.grid.Nodes() {
		s.RegisterSoftware(n.Name(), pkg, path)
	}
}

// LookupSoftware returns a package's install path on a node. The calling
// process pays QueryDelay. It returns an error for missing software —
// the binder treats that as a deployment failure.
func (s *Service) LookupSoftware(p *simcore.Proc, node, pkg string) (string, error) {
	s.queries++
	if err := s.health.Check(p); err != nil {
		return "", err
	}
	if err := p.Sleep(QueryDelay); err != nil {
		return "", err
	}
	if path, ok := s.software[node][pkg]; ok {
		return path, nil
	}
	return "", fmt.Errorf("gis: software %q not installed on %q", pkg, node)
}

// HasSoftware reports without delay whether a package is installed on a node
// (used by filters that run inside scheduler heuristics).
func (s *Service) HasSoftware(node, pkg string) bool {
	_, ok := s.software[node][pkg]
	return ok
}

// Filter restricts a resource query.
type Filter struct {
	Arch     topology.Arch // match this architecture if non-empty
	Site     string        // restrict to this site if non-empty
	MinMemMB float64       // minimum node memory
	MinMHz   float64       // minimum clock
	Software []string      // require these packages installed
}

// matches reports whether a node satisfies the filter. Failed nodes never
// match.
func (s *Service) matches(n *topology.Node, f Filter) bool {
	if n.Down() {
		return false
	}
	if f.Arch != "" && n.Spec.Arch != f.Arch {
		return false
	}
	if f.Site != "" && n.Site().Name != f.Site {
		return false
	}
	if n.Spec.MemMB < f.MinMemMB || n.Spec.MHz < f.MinMHz {
		return false
	}
	for _, pkg := range f.Software {
		if !s.HasSoftware(n.Name(), pkg) {
			return false
		}
	}
	return true
}

// QueryResources appends every node matching the filter to dst, in name
// order, and returns the extended slice. The calling process pays a single
// QueryDelay regardless of pool size (the MDS answers the whole query in one
// round trip). Brokers that arbitrate between competing applications (the
// metascheduler) admit against one answer per decision round, so every
// queued job in a round sees the same pool; passing the previous round's
// buffer as dst[:0] makes the query allocation-free.
func (s *Service) QueryResources(p *simcore.Proc, f Filter, dst []*topology.Node) ([]*topology.Node, error) {
	s.queries++
	if err := s.health.Check(p); err != nil {
		return dst, err
	}
	if err := p.Sleep(QueryDelay); err != nil {
		return dst, err
	}
	return s.selectNodes(f, dst), nil
}

// selectNodes appends the matching nodes to dst. Grid.Nodes is already in
// name order, so the result needs no sort.
func (s *Service) selectNodes(f Filter, dst []*topology.Node) []*topology.Node {
	for _, n := range s.grid.Nodes() {
		if s.matches(n, f) {
			dst = append(dst, n)
		}
	}
	return dst
}

// NodeInfo is the per-node capability record a GIS query returns.
type NodeInfo struct {
	Name     string
	Site     string
	Arch     topology.Arch
	MHz      float64
	Flops    float64
	MemMB    float64
	Software []string
}

// DescribeNode returns a node's capability record (hardware and software),
// as the binder consumes it. It returns an error for unknown nodes.
func (s *Service) DescribeNode(p *simcore.Proc, name string) (NodeInfo, error) {
	s.queries++
	if err := s.health.Check(p); err != nil {
		return NodeInfo{}, err
	}
	if err := p.Sleep(QueryDelay); err != nil {
		return NodeInfo{}, err
	}
	n := s.grid.Node(name)
	if n == nil {
		return NodeInfo{}, fmt.Errorf("gis: unknown node %q", name)
	}
	var pkgs []string
	for pkg := range s.software[name] {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	return NodeInfo{
		Name:     n.Name(),
		Site:     n.Site().Name,
		Arch:     n.Spec.Arch,
		MHz:      n.Spec.MHz,
		Flops:    n.Spec.Flops(),
		MemMB:    n.Spec.MemMB,
		Software: pkgs,
	}, nil
}
