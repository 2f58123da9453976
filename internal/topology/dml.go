package topology

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"grads/internal/simcore"
	"grads/internal/spec"
)

// ParseDML builds a Grid from a textual description in a small declarative
// language modeled after the MicroGrid's Domain Modeling Language usage in
// the paper ("described for MicroGrid in standard DML and a simple resource
// description for the processor nodes").
//
// Grammar (one declaration per line, '#' starts a comment):
//
//	site <name> bw=<bandwidth> lat=<latency>
//	node <name> site=<site> [arch=ia32|ia64] [mhz=<f>] [fpc=<f>] [mem=<MB>]
//	             [l1=<KB>] [l2=<KB>] [line=<bytes>]
//	cluster <prefix> count=<n> site=<site> [node attrs...]
//	wan <siteA> <siteB> bw=<bandwidth> lat=<latency>
//
// Bandwidths accept the suffixes KB, MB, GB (bytes/s, SI) and Kb, Mb, Gb
// (bits/s); latencies accept us, ms, s. Bare numbers are bytes/s and
// seconds. Every number must be finite, and mhz, fpc, mem, count and the
// cache sizes positive. A line names each attribute at most once, and of
// its bad values the first as written is the one reported. Site, node and
// wan names must be new, and a site must be declared before a node or wan
// names it.
func ParseDML(sim *simcore.Sim, text string) (*Grid, error) {
	g := NewGrid(sim)
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := parseDecl(g, fields); err != nil {
			return nil, fmt.Errorf("dml: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dml: line %d: %w", lineNo+1, err)
	}
	return g, nil
}

func parseDecl(g *Grid, fields []string) error {
	switch fields[0] {
	case "site":
		if len(fields) < 2 {
			return fmt.Errorf("site needs a name")
		}
		name := fields[1]
		if g.Site(name) != nil {
			return fmt.Errorf("duplicate site %q", name)
		}
		bw, lat, err := linkAttrs(fields[2:])
		if err != nil {
			return err
		}
		g.AddSite(name, bw, lat)
		return nil

	case "node":
		if len(fields) < 2 {
			return fmt.Errorf("node needs a name")
		}
		sp, _, err := nodeAttrs(fields[2:], false)
		if err != nil {
			return err
		}
		sp.Name = fields[1]
		return addNode(g, sp)

	case "cluster":
		if len(fields) < 2 {
			return fmt.Errorf("cluster needs a name prefix")
		}
		sp, count, err := nodeAttrs(fields[2:], true)
		if err != nil {
			return err
		}
		if count == 0 {
			return fmt.Errorf("cluster needs count=")
		}
		for i := 1; i <= count; i++ {
			sp.Name = fmt.Sprintf("%s%d", fields[1], i)
			if err := addNode(g, sp); err != nil {
				return err
			}
		}
		return nil

	case "wan":
		if len(fields) < 3 {
			return fmt.Errorf("wan needs two site names")
		}
		a, b := fields[1], fields[2]
		for _, name := range []string{a, b} {
			if g.Site(name) == nil {
				return fmt.Errorf("wan %s %s: unknown site %q", a, b, name)
			}
		}
		if a == b {
			return fmt.Errorf("wan %s %s: a site needs no WAN link to itself", a, b)
		}
		if g.WAN(a, b) != nil {
			return fmt.Errorf("duplicate wan %s %s", a, b)
		}
		bw, lat, err := linkAttrs(fields[3:])
		if err != nil {
			return err
		}
		g.Connect(a, b, bw, lat)
		return nil
	}
	return fmt.Errorf("unknown declaration %q", fields[0])
}

// addNode adds the node after the checks on which Grid.AddNode panics.
func addNode(g *Grid, sp NodeSpec) error {
	switch {
	case sp.Site == "":
		return fmt.Errorf("node %q needs site=", sp.Name)
	case g.Site(sp.Site) == nil:
		return fmt.Errorf("node %q: unknown site %q", sp.Name, sp.Site)
	case g.Node(sp.Name) != nil:
		return fmt.Errorf("duplicate node %q", sp.Name)
	}
	g.AddNode(sp)
	return nil
}

// linkAttrs reads the bw= and lat= attributes of a site or wan.
func linkAttrs(fields []string) (bw, lat float64, err error) {
	params, err := spec.ParamList(fields)
	if err != nil {
		return 0, 0, err
	}
	var haveBW, haveLat bool
	for _, p := range params {
		switch p.Key {
		case "bw":
			bw, err = ParseBandwidth(p.Val)
			haveBW = true
		case "lat":
			lat, err = ParseLatency(p.Val)
			haveLat = true
		default:
			err = fmt.Errorf("unknown attribute %q", p.Key)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	switch {
	case !haveBW:
		return 0, 0, fmt.Errorf("missing bw=")
	case !haveLat:
		return 0, 0, fmt.Errorf("missing lat=")
	}
	return bw, lat, nil
}

// nodeAttrs reads a node's attributes in written order, stopping at the
// first bad one; the spec's Name is left to the caller. With withCount a
// cluster's count= is read too (0 when absent).
func nodeAttrs(fields []string, withCount bool) (sp NodeSpec, count int, err error) {
	params, err := spec.ParamList(fields)
	if err != nil {
		return sp, 0, err
	}
	sp = NodeSpec{
		Arch:          ArchIA32,
		MHz:           500,
		FlopsPerCycle: 0.5,
		MemMB:         512,
		Cache:         CacheConfig{L1KB: 16, L2KB: 512, LineBytes: 32},
	}
	for _, p := range params {
		switch p.Key {
		case "site":
			sp.Site = p.Val
		case "arch":
			sp.Arch = Arch(p.Val)
		case "mhz":
			sp.MHz, err = positive(p.Val)
		case "fpc":
			sp.FlopsPerCycle, err = positive(p.Val)
		case "mem":
			sp.MemMB, err = positive(p.Val)
		case "l1":
			sp.Cache.L1KB, err = positiveInt(p.Val)
		case "l2":
			sp.Cache.L2KB, err = positiveInt(p.Val)
		case "line":
			sp.Cache.LineBytes, err = positiveInt(p.Val)
		case "count":
			if !withCount {
				return sp, 0, fmt.Errorf("unknown node attribute %q", p.Key)
			}
			count, err = positiveInt(p.Val)
		default:
			return sp, 0, fmt.Errorf("unknown node attribute %q", p.Key)
		}
		if err != nil {
			return sp, 0, fmt.Errorf("bad %s: %w", p.Key, err)
		}
	}
	return sp, count, nil
}

// positive parses a finite number above zero.
func positive(s string) (float64, error) {
	v, err := spec.Float(s)
	if err == nil && v <= 0 {
		err = fmt.Errorf("%q is not positive", s)
	}
	return v, err
}

// positiveInt parses an integer above zero.
func positiveInt(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("%q is not a positive integer", s)
	}
	return n, nil
}

// ParseBandwidth converts "160MB", "100Mb", "1.28Gb" or a bare number into
// bytes per second (SI prefixes; lowercase b = bits).
func ParseBandwidth(s string) (float64, error) {
	mult := 1.0
	num := s
	switch {
	case strings.HasSuffix(s, "GB"):
		mult, num = 1e9, s[:len(s)-2]
	case strings.HasSuffix(s, "MB"):
		mult, num = 1e6, s[:len(s)-2]
	case strings.HasSuffix(s, "KB"):
		mult, num = 1e3, s[:len(s)-2]
	case strings.HasSuffix(s, "Gb"):
		mult, num = 1e9/8, s[:len(s)-2]
	case strings.HasSuffix(s, "Mb"):
		mult, num = 1e6/8, s[:len(s)-2]
	case strings.HasSuffix(s, "Kb"):
		mult, num = 1e3/8, s[:len(s)-2]
	}
	f, err := spec.Float(num)
	if err != nil || f <= 0 {
		return 0, fmt.Errorf("bad bandwidth %q", s)
	}
	return f * mult, nil
}

// ParseLatency converts "30ms", "100us", "1.5s" or a bare number (seconds)
// into seconds.
func ParseLatency(s string) (float64, error) {
	mult := 1.0
	num := s
	switch {
	case strings.HasSuffix(s, "us"):
		mult, num = 1e-6, s[:len(s)-2]
	case strings.HasSuffix(s, "ms"):
		mult, num = 1e-3, s[:len(s)-2]
	case strings.HasSuffix(s, "s"):
		num = s[:len(s)-1]
	}
	f, err := spec.Float(num)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("bad latency %q", s)
	}
	return f * mult, nil
}
