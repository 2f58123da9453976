package perfmodel

import (
	"errors"
	"fmt"
	"math"

	"grads/internal/topology"
)

// Sample is one profiled small-size run of a component: its problem size
// and the floating-point operations counted. In the paper these come from
// PAPI hardware counters; here the application cost models synthesize them.
type Sample struct {
	N     float64
	Flops float64
}

// ComponentModel is the architecture-independent performance model of one
// application component: its flop count as a function of problem size,
// convertible to a time estimate on any node.
type ComponentModel struct {
	Name  string
	Flops Poly
}

// ErrNoSamples reports an attempt to fit a model with no profiles.
var ErrNoSamples = errors.New("perfmodel: no samples")

// FitComponent builds a ComponentModel from small-run profiles.
// flopDegree is the degree of the flop-count fit (e.g. 3 for dense linear
// algebra).
func FitComponent(name string, samples []Sample, flopDegree int) (*ComponentModel, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	ns := make([]float64, len(samples))
	flops := make([]float64, len(samples))
	for i, s := range samples {
		ns[i] = s.N
		flops[i] = s.Flops
	}
	fp, err := Polyfit(ns, flops, flopDegree)
	if err != nil {
		return nil, err
	}
	return &ComponentModel{Name: name, Flops: fp}, nil
}

// FlopsAt predicts the flop count at problem size n (never negative).
func (c *ComponentModel) FlopsAt(n float64) float64 {
	f := c.Flops.Eval(n)
	if f < 0 {
		return 0
	}
	return f
}

// Time estimates the component's execution time at problem size n on a node
// at full availability: the predicted flops at the node's sustained rate.
func (c *ComponentModel) Time(n float64, node *topology.Node) float64 {
	return c.FlopsAt(n) / node.Spec.Flops()
}

// TimeLoaded estimates execution time when the node delivers only the given
// availability fraction of its CPU (an NWS forecast).
func (c *ComponentModel) TimeLoaded(n float64, node *topology.Node, avail float64) float64 {
	if avail <= 0 {
		avail = 1e-3
	}
	return c.Time(n, node) / avail
}

// CrossValidate measures how well the §3.2 fitting pipeline extrapolates:
// it fits a model on all but the last holdOut samples (which must be the
// largest problem sizes — the direction GrADS extrapolates in) and returns
// the mean relative error of the flop predictions on the held-out samples.
func CrossValidate(samples []Sample, holdOut, flopDegree int) (float64, error) {
	if holdOut <= 0 || holdOut >= len(samples) {
		return 0, fmt.Errorf("perfmodel: holdOut %d of %d samples", holdOut, len(samples))
	}
	train := samples[:len(samples)-holdOut]
	test := samples[len(samples)-holdOut:]
	m, err := FitComponent("cv", train, flopDegree)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, s := range test {
		if s.Flops == 0 {
			continue
		}
		sum += math.Abs(m.FlopsAt(s.N)-s.Flops) / s.Flops
	}
	return sum / float64(len(test)), nil
}
