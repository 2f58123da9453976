package apps

import (
	"fmt"
	"math/rand"

	"grads/internal/core"
	"grads/internal/perfmodel"
	"grads/internal/topology"
)

// emanStage describes one component of the EMAN refinement chain
// (Figure 2): a linear workflow in which some components parallelize.
type emanStage struct {
	name     string
	flops    func(n float64) float64 // analytic resource-usage curve
	outBytes float64
	parallel bool
	minMemMB float64
	reqArch  topology.Arch // non-empty: binary only validated on this arch
}

// emanStages is the EMAN single-particle refinement chain: preprocess the
// preliminary model, generate projections, classify raw particles against
// the projections (the dominant, embarrassingly parallel step), align the
// particles within classes, reconstruct the 3-D model, and run the
// even/odd resolution test.
func emanStages() []emanStage {
	return []emanStage{
		{name: "proc3d", flops: func(n float64) float64 { return 2e6 * n }, outBytes: 50e6},
		{name: "project3d", flops: func(n float64) float64 { return 1e7 * n }, outBytes: 200e6},
		{name: "classesbymra", flops: func(n float64) float64 { return 5e6 * n * n }, outBytes: 400e6, parallel: true, minMemMB: 512},
		// classalign2 is only deployed for IA-32 (per-architecture library
		// availability is exactly what the distributed binder's GIS
		// lookups model), so a valid schedule must span both
		// architectures — the heterogeneity §3.3 demonstrated.
		{name: "classalign2", flops: func(n float64) float64 { return 4e5 * n * n }, outBytes: 300e6, parallel: true, reqArch: topology.ArchIA32},
		{name: "make3d", flops: func(n float64) float64 { return 2e7 * n }, outBytes: 100e6, minMemMB: 512},
		{name: "eotest", flops: func(n float64) float64 { return 5e6 * n }, outBytes: 10e6},
	}
}

// EMANWorkflow builds the §3.3 EMAN refinement workflow for a dataset of n
// particle images, with the parallelizable components split width ways.
// Component models are fitted from small-size profiles exactly as the
// GrADS performance modeling pipeline does (§3.2).
func EMANWorkflow(n float64, width int) (*core.Workflow, error) {
	if n <= 0 || width <= 0 {
		return nil, fmt.Errorf("apps: bad EMAN parameters n=%v width=%d", n, width)
	}
	w := core.NewWorkflow()
	prev := -1
	for _, st := range emanStages() {
		var samples []perfmodel.Sample
		for s := 50.0; s <= 250; s += 50 {
			samples = append(samples, perfmodel.Sample{N: s, Flops: st.flops(s)})
		}
		model, err := perfmodel.FitComponent(st.name, samples, 2)
		if err != nil {
			return nil, fmt.Errorf("apps: fitting %s: %w", st.name, err)
		}
		c := &core.Component{
			Name:           st.name,
			Model:          model,
			ProblemSize:    n,
			OutputBytes:    st.outBytes,
			Parallelizable: st.parallel,
			Width:          width,
			MinMemMB:       st.minMemMB,
			ReqArch:        st.reqArch,
		}
		if prev < 0 {
			prev = w.Add(c)
		} else {
			prev = w.Add(c, prev)
		}
	}
	return w, nil
}

// RandomWorkflow generates a layered random DAG for scheduler benchmarks:
// layers of width tasks, each task depending on 1..fanin random tasks of
// the previous layer, with mixed computational weights.
func RandomWorkflow(rng *rand.Rand, layers, width, fanin int) (*core.Workflow, error) {
	if layers <= 0 || width <= 0 {
		return nil, fmt.Errorf("apps: bad random workflow shape")
	}
	if fanin < 1 {
		fanin = 1
	}
	w := core.NewWorkflow()
	var prevLayer []int
	for l := 0; l < layers; l++ {
		var cur []int
		for i := 0; i < width; i++ {
			scale := 1e8 * float64(1+rng.Intn(10))
			samples := []perfmodel.Sample{
				{N: 1, Flops: scale}, {N: 2, Flops: 2 * scale}, {N: 3, Flops: 3 * scale},
			}
			model, err := perfmodel.FitComponent(fmt.Sprintf("t%d.%d", l, i), samples, 1)
			if err != nil {
				return nil, err
			}
			var deps []int
			if len(prevLayer) > 0 {
				k := 1 + rng.Intn(fanin)
				seen := map[int]bool{}
				for j := 0; j < k; j++ {
					d := prevLayer[rng.Intn(len(prevLayer))]
					if !seen[d] {
						seen[d] = true
						deps = append(deps, d)
					}
				}
			}
			cur = append(cur, w.Add(&core.Component{
				Name:        fmt.Sprintf("t%d.%d", l, i),
				Model:       model,
				ProblemSize: float64(1 + rng.Intn(3)),
				OutputBytes: 1e6 * float64(1+rng.Intn(50)),
			}, deps...))
		}
		prevLayer = cur
	}
	return w, nil
}
