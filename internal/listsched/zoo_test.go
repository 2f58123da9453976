package listsched

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestParseZooDefaultsAndOverrides(t *testing.T) {
	got, err := ParseZoo("chain;fanout:width=32;layered:ccr=2.5,fanin=1;eman:n=200,width=4;diamond")
	if err != nil {
		t.Fatal(err)
	}
	want := []ZooSpec{
		{Class: ZooChain, N: 16, CCR: 0.5},
		{Class: ZooFanout, Width: 32, CCR: 1},
		{Class: ZooLayered, Layers: 4, Width: 8, Fanin: 1, CCR: 2.5},
		{Class: ZooEMAN, N: 200, Width: 4},
		{Class: ZooDiamond, Width: 6, Layers: 4, CCR: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseZoo = %+v\nwant %+v", got, want)
	}
	// Spaces around tokens and upper-case classes parse to the plain form.
	spaced, err := ParseZoo(" Chain ; FANOUT : width = 32 ;layered: ccr=2.5 , fanin= 1; eman:n=200,width=4;Diamond")
	if err != nil || !reflect.DeepEqual(spaced, want) {
		t.Fatalf("spaced spec parsed to %+v (%v), want %+v", spaced, err, want)
	}
}

func TestParseZooErrors(t *testing.T) {
	cases := []struct {
		name, spec, wantSub string
	}{
		{"empty", "", "empty zoo spec"},
		{"blank-entry", "chain;;fanout", "empty zoo entry"},
		{"unknown-class", "ring:n=4", "unknown zoo class"},
		{"unknown-key", "chain:m=4", "unknown key"},
		{"bad-param", "chain:n", "want key=value"},
		{"not-number", "chain:n=four", "not a number"},
		{"duplicate-key", "chain:n=4,n=5", "duplicate key"},
		{"zero-int", "chain:n=0", "must be an integer"},
		{"negative-int", "fanout:width=-3", "must be an integer"},
		{"fraction-int", "fanout:width=2.5", "must be an integer"},
		{"huge-int", "chain:n=100000", "must be an integer"},
		{"negative-ccr", "chain:ccr=-1", "out of range"},
		{"nan-ccr", "chain:ccr=NaN", "out of range"},
		{"inf-ccr", "chain:ccr=Inf", "out of range"},
		{"huge-ccr", "chain:ccr=1e30", "out of range"},
		{"wrong-class-key", "eman:ccr=1", "unknown key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseZoo(tc.spec); err == nil {
				t.Fatalf("ParseZoo(%q) succeeded", tc.spec)
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("ParseZoo(%q) = %v, want substring %q", tc.spec, err, tc.wantSub)
			}
		})
	}
}

func TestZooRoundTrip(t *testing.T) {
	specs, err := ParseZoo("chain:n=12,ccr=0.25;fanout;diamond:layers=2;layered:width=3;eman")
	if err != nil {
		t.Fatal(err)
	}
	formatted := FormatZoo(specs)
	re, err := ParseZoo(formatted)
	if err != nil {
		t.Fatalf("reparse of %q: %v", formatted, err)
	}
	if !reflect.DeepEqual(specs, re) {
		t.Fatalf("round trip: %+v != %+v (via %q)", specs, re, formatted)
	}
}

func TestZooBuildShapes(t *testing.T) {
	specs, err := ParseZoo("chain:n=8;fanout:width=5;diamond:width=3,layers=2;layered:layers=3,width=4;eman:n=100,width=3")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, z := range specs {
		wf, err := z.Build(rng)
		if err != nil {
			t.Fatalf("%s: %v", z, err)
		}
		if wf.Len() != z.Tasks() {
			t.Errorf("%s: built %d tasks, Tasks() = %d", z, wf.Len(), z.Tasks())
		}
		if err := wf.Validate(); err != nil {
			t.Errorf("%s: %v", z, err)
		}
		switch z.Class {
		case ZooChain:
			for i := 1; i < wf.Len(); i++ {
				if d := wf.Deps(i); len(d) != 1 || d[0] != i-1 {
					t.Errorf("chain deps[%d] = %v", i, d)
				}
			}
		case ZooFanout:
			if len(wf.Deps(wf.Len()-1)) != z.Width {
				t.Errorf("fanout join has %d deps, want %d", len(wf.Deps(wf.Len()-1)), z.Width)
			}
			levels := wf.Levels()
			if len(levels) != 3 || len(levels[1]) != z.Width {
				t.Errorf("fanout levels = %v", levels)
			}
		case ZooDiamond:
			levels := wf.Levels()
			if len(levels) != 1+2*z.Layers {
				t.Errorf("diamond has %d levels, want %d", len(levels), 1+2*z.Layers)
			}
		case ZooLayered:
			if got := len(wf.Levels()); got != z.Layers {
				t.Errorf("layered has %d levels, want %d", got, z.Layers)
			}
		}
	}
}

// TestZooBuildDeterministic: the same seed yields the identical DAG.
func TestZooBuildDeterministic(t *testing.T) {
	spec := ZooSpec{Class: ZooLayered, Layers: 4, Width: 6, Fanin: 3, CCR: 2}
	build := func() *strings.Builder {
		rng := rand.New(rand.NewSource(42))
		wf, err := spec.Build(rng)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i, c := range wf.Components {
			b.WriteString(c.Name)
			for _, d := range wf.Deps(i) {
				b.WriteByte(' ')
				b.WriteByte(byte('0' + d%10))
			}
			b.WriteByte(';')
		}
		return &b
	}
	if a, b := build().String(), build().String(); a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
}

// TestZooCCRScalesOutput: a higher CCR must produce proportionally larger
// output volumes for the same task weights.
func TestZooCCRScalesOutput(t *testing.T) {
	lo := ZooSpec{Class: ZooChain, N: 5, CCR: 0.5}
	hi := ZooSpec{Class: ZooChain, N: 5, CCR: 2}
	wlo, err := lo.Build(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	whi, err := hi.Build(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range wlo.Components {
		a, b := wlo.Components[i].OutputBytes, whi.Components[i].OutputBytes
		if b != 4*a {
			t.Fatalf("component %d: CCR 2 output %v != 4× CCR 0.5 output %v", i, b, a)
		}
	}
}
