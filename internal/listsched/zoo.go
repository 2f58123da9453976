package listsched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"grads/internal/apps"
	"grads/internal/core"
	"grads/internal/perfmodel"
	"grads/internal/spec"
)

// Zoo classes.
const (
	ZooChain   = "chain"   // serial pipeline of n tasks
	ZooFanout  = "fanout"  // fork-join: entry → width parallel tasks → exit
	ZooDiamond = "diamond" // layers alternating 1 → width → 1 diamonds
	ZooLayered = "layered" // random layered DAG (layers × width, random fan-in)
	ZooEMAN    = "eman"    // the §3.3 EMAN refinement workflow, expanded
)

// ZooSpec describes one synthetic DAG of the zoo. Zero-valued fields take
// the class defaults on Parse; Build requires a canonical (parsed or
// Canon-icalized) spec.
type ZooSpec struct {
	Class  string
	N      int     // chain length / eman particle count
	Width  int     // fanout width / diamond width / layered width / eman split
	Layers int     // diamond count / layered depth
	Fanin  int     // layered: max extra predecessors per task
	CCR    float64 // target communication-to-computation ratio
}

// zooParam describes one accepted key of a class, in canonical order.
type zooParam struct {
	key string
	get func(*ZooSpec) float64
	set func(*ZooSpec, float64)
	flt bool // float-valued (ccr); else positive integer
}

var (
	paramN      = zooParam{key: "n", get: func(z *ZooSpec) float64 { return float64(z.N) }, set: func(z *ZooSpec, v float64) { z.N = int(v) }}
	paramWidth  = zooParam{key: "width", get: func(z *ZooSpec) float64 { return float64(z.Width) }, set: func(z *ZooSpec, v float64) { z.Width = int(v) }}
	paramLayers = zooParam{key: "layers", get: func(z *ZooSpec) float64 { return float64(z.Layers) }, set: func(z *ZooSpec, v float64) { z.Layers = int(v) }}
	paramFanin  = zooParam{key: "fanin", get: func(z *ZooSpec) float64 { return float64(z.Fanin) }, set: func(z *ZooSpec, v float64) { z.Fanin = int(v) }}
	paramCCR    = zooParam{key: "ccr", get: func(z *ZooSpec) float64 { return z.CCR }, set: func(z *ZooSpec, v float64) { z.CCR = v }, flt: true}
)

// zooClasses maps each class to its parameters (canonical emission order)
// and defaults.
var zooClasses = map[string]struct {
	params   []zooParam
	defaults ZooSpec
}{
	ZooChain:   {[]zooParam{paramN, paramCCR}, ZooSpec{Class: ZooChain, N: 16, CCR: 0.5}},
	ZooFanout:  {[]zooParam{paramWidth, paramCCR}, ZooSpec{Class: ZooFanout, Width: 24, CCR: 1}},
	ZooDiamond: {[]zooParam{paramWidth, paramLayers, paramCCR}, ZooSpec{Class: ZooDiamond, Width: 6, Layers: 4, CCR: 1}},
	ZooLayered: {[]zooParam{paramLayers, paramWidth, paramFanin, paramCCR}, ZooSpec{Class: ZooLayered, Layers: 4, Width: 8, Fanin: 3, CCR: 1}},
	ZooEMAN:    {[]zooParam{paramN, paramWidth}, ZooSpec{Class: ZooEMAN, N: 400, Width: 8}},
}

// maxZooSize bounds every integer parameter so that fuzzed specs cannot
// describe pathological DAGs.
const maxZooSize = 4096

// ParseZoo parses a DAG-zoo spec (lexed by package spec):
//
//	spec  := entry (';' entry)*
//	entry := class [':' param (',' param)*]
//	param := key '=' value
//
// with classes and keys
//
//	chain    n=16,ccr=0.5              serial pipeline of n tasks
//	fanout   width=24,ccr=1            fork-join: 1 → width → 1
//	diamond  width=6,layers=4,ccr=1    layers stacked 1 → width → 1 diamonds
//	layered  layers=4,width=8,fanin=3,ccr=1   random layered DAG
//	eman     n=400,width=8             the §3.3 EMAN workflow, width-way split
//
// Omitted keys take the class defaults shown; integer parameters must be in
// [1, 4096] and ccr in [0, 1024] (NaN and infinities are rejected). The
// result is canonical: FormatZoo renders it back to a spec that reparses to
// the identical value.
func ParseZoo(s string) ([]ZooSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("listsched: empty zoo spec")
	}
	var out []ZooSpec
	for _, entry := range spec.Entries(s) {
		if entry == "" {
			return nil, fmt.Errorf("listsched: empty zoo entry")
		}
		class, rest, hasParams := strings.Cut(entry, ":")
		class = strings.ToLower(strings.TrimSpace(class))
		c, ok := zooClasses[class]
		if !ok {
			return nil, fmt.Errorf("listsched: unknown zoo class %q", class)
		}
		z, keys := c.defaults, c.params
		if hasParams {
			params, err := spec.Params(rest)
			if err != nil {
				return nil, fmt.Errorf("listsched: zoo %s: %w", class, err)
			}
			for _, kv := range params {
				i := slices.IndexFunc(keys, func(p zooParam) bool { return p.key == kv.Key })
				if i < 0 {
					return nil, fmt.Errorf("listsched: zoo %s: unknown key %q", class, kv.Key)
				}
				v, err := spec.Float(kv.Val)
				if err != nil {
					return nil, fmt.Errorf("listsched: zoo %s: %s=%w", class, kv.Key, err)
				}
				if keys[i].flt {
					if v < 0 || v > 1024 {
						return nil, fmt.Errorf("listsched: zoo %s: %s=%v out of range [0, 1024]", class, kv.Key, v)
					}
				} else if v != math.Trunc(v) || v < 1 || v > maxZooSize {
					return nil, fmt.Errorf("listsched: zoo %s: %s=%v must be an integer in [1, %d]", class, kv.Key, v, maxZooSize)
				}
				keys[i].set(&z, v)
			}
		}
		out = append(out, z)
	}
	return out, nil
}

// String renders the spec in the canonical grammar (every parameter
// explicit, class order).
func (z ZooSpec) String() string {
	c, ok := zooClasses[z.Class]
	if !ok {
		return z.Class
	}
	parts := make([]string, 0, len(c.params))
	for _, p := range c.params {
		parts = append(parts, p.key+"="+spec.Fmt(p.get(&z)))
	}
	return z.Class + ":" + strings.Join(parts, ",")
}

// FormatZoo renders specs in the grammar ParseZoo accepts — its exact
// inverse on parsed values, so zoo workloads round-trip losslessly through
// reports and replays.
func FormatZoo(specs []ZooSpec) string { return spec.Join(specs) }

// Tasks returns the component count the spec expands to (for reports).
func (z ZooSpec) Tasks() int {
	switch z.Class {
	case ZooChain:
		return z.N
	case ZooFanout:
		return z.Width + 2
	case ZooDiamond:
		return 1 + z.Layers*(z.Width+1)
	case ZooLayered:
		return z.Layers * z.Width
	case ZooEMAN:
		return 4 + 2*z.Width
	}
	return 0
}

// zoo CCR calibration: a task of f flops runs f/refFlops seconds on the
// reference node, so ccr targets OutputBytes = ccr · exec · refBW with the
// reference WAN bandwidth.
const (
	zooRefFlops = 6e8    // mean MacroGrid node speed, flops/s
	zooRefBW    = 1.25e6 // Internet path bandwidth, bytes/s
)

// zooComponent builds one generic zoo task: a linear performance model of
// `flops` total work and an output volume hitting the spec's CCR.
func zooComponent(name string, flops, ccr float64) (*core.Component, error) {
	model, err := perfmodel.FitComponent(name, []perfmodel.Sample{
		{N: 1, Flops: flops}, {N: 2, Flops: 2 * flops}, {N: 3, Flops: 3 * flops},
	}, 1)
	if err != nil {
		return nil, err
	}
	return &core.Component{
		Name:        name,
		Model:       model,
		ProblemSize: 1,
		OutputBytes: ccr * (flops / zooRefFlops) * zooRefBW,
	}, nil
}

// zooFlops draws one task weight: 1–10 Gflop, seconds-scale on the testbed.
func zooFlops(rng *rand.Rand) float64 { return 1e9 * float64(1+rng.Intn(10)) }

// Build materializes the spec into a workflow. Task weights (and the
// layered class's edges) are drawn from rng, so a fixed seed yields a fixed
// DAG.
func (z ZooSpec) Build(rng *rand.Rand) (*core.Workflow, error) {
	if _, ok := zooClasses[z.Class]; !ok {
		return nil, fmt.Errorf("listsched: unknown zoo class %q", z.Class)
	}
	w := core.NewWorkflow()
	add := func(name string, deps ...int) (int, error) {
		c, err := zooComponent(name, zooFlops(rng), z.CCR)
		if err != nil {
			return 0, err
		}
		return w.AddChecked(c, deps...)
	}
	switch z.Class {
	case ZooChain:
		prev := -1
		for i := 0; i < z.N; i++ {
			var deps []int
			if prev >= 0 {
				deps = []int{prev}
			}
			id, err := add(fmt.Sprintf("chain%d", i), deps...)
			if err != nil {
				return nil, err
			}
			prev = id
		}
	case ZooFanout:
		entry, err := add("fork")
		if err != nil {
			return nil, err
		}
		mids := make([]int, z.Width)
		for i := range mids {
			if mids[i], err = add(fmt.Sprintf("mid%d", i), entry); err != nil {
				return nil, err
			}
		}
		if _, err = add("join", mids...); err != nil {
			return nil, err
		}
	case ZooDiamond:
		prev, err := add("d0")
		if err != nil {
			return nil, err
		}
		for l := 0; l < z.Layers; l++ {
			wide := make([]int, z.Width)
			for i := range wide {
				if wide[i], err = add(fmt.Sprintf("d%d.%d", l+1, i), prev); err != nil {
					return nil, err
				}
			}
			if prev, err = add(fmt.Sprintf("j%d", l+1), wide...); err != nil {
				return nil, err
			}
		}
	case ZooLayered:
		var prevLayer []int
		for l := 0; l < z.Layers; l++ {
			cur := make([]int, 0, z.Width)
			for i := 0; i < z.Width; i++ {
				var deps []int
				if len(prevLayer) > 0 {
					k := 1 + rng.Intn(z.Fanin)
					seen := map[int]bool{}
					for j := 0; j < k; j++ {
						d := prevLayer[rng.Intn(len(prevLayer))]
						if !seen[d] {
							seen[d] = true
							deps = append(deps, d)
						}
					}
					sort.Ints(deps)
				}
				id, err := add(fmt.Sprintf("l%d.%d", l, i), deps...)
				if err != nil {
					return nil, err
				}
				cur = append(cur, id)
			}
			prevLayer = cur
		}
	case ZooEMAN:
		wf, err := apps.EMANWorkflow(float64(z.N), z.Width)
		if err != nil {
			return nil, err
		}
		w = wf.Expand()
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
