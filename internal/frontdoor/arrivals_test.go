package frontdoor

import (
	"math"
	"reflect"
	"testing"
)

// TestParseArrivalsGrammar: the documented forms parse to the expected
// phases, canonicalized (sorted phases, sorted mixes, concrete defaults).
func TestParseArrivalsGrammar(t *testing.T) {
	got, err := ParseArrivals(
		"flash@0-3600:rate=0.1,peak=1,at=1800,hold=120,mix=int:1;" +
			" poisson@0-600:rate=0.25 ;" +
			"mmpp@600-1200:rate=0.1,hi=0.5,dwell=200;" +
			"wave@0-3600:rate=0.2,amp=0.5,period=1200,mix=bulk:1/int:3;" +
			"ramp@1200-1800:rate=0,to=0.4")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := []Phase{
		{Kind: "poisson", Start: 0, End: 600, Rate: 0.25},
		{Kind: "flash", Start: 0, End: 3600, Rate: 0.1, Peak: 1, FlashAt: 1800, Hold: 120,
			Mix: []MixEntry{{Class: "int", Weight: 1}}},
		{Kind: "wave", Start: 0, End: 3600, Rate: 0.2, Amp: 0.5, Period: 1200,
			Mix: []MixEntry{{Class: "bulk", Weight: 1}, {Class: "int", Weight: 3}}},
		{Kind: "mmpp", Start: 600, End: 1200, Rate: 0.1, Hi: 0.5, Dwell: 200, HiDwell: 200},
		{Kind: "ramp", Start: 1200, End: 1800, Rate: 0, To: 0.4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed phases:\n got %+v\nwant %+v", got, want)
	}
	// Spaces around tokens and upper-case kinds and classes parse to the
	// plain form.
	spaced, err := ParseArrivals(" WAVE @ 0 - 3600 : rate = 0.2 , amp=0.5,period= 1200 , mix = BULK : 1 / Int: 3 ")
	if err != nil || !reflect.DeepEqual(spaced, []Phase{want[2]}) {
		t.Fatalf("spaced phase parsed to %+v (%v), want %+v", spaced, err, want[2])
	}
}

// TestParseArrivalsErrors: malformed specs are rejected with a diagnostic
// naming the offending phase.
func TestParseArrivalsErrors(t *testing.T) {
	cases := []struct{ name, spec string }{
		{"empty", ""},
		{"separators only", ";;;"},
		{"no at", "poisson0-10:rate=1"},
		{"no colon", "poisson@0-10"},
		{"no window dash", "poisson@10:rate=1"},
		{"window end before start", "poisson@10-5:rate=1"},
		{"window end equals start", "poisson@5-5:rate=1"},
		{"negative start", "poisson@-1-10:rate=1"},
		{"NaN start", "poisson@NaN-10:rate=1"},
		{"infinite end", "poisson@0-+Inf:rate=1"},
		{"unknown kind", "burst@0-10:rate=1"},
		{"missing rate", "poisson@0-10:mix=int:1"},
		{"zero poisson rate", "poisson@0-10:rate=0"},
		{"negative rate", "poisson@0-10:rate=-1"},
		{"bare param", "poisson@0-10:rate"},
		{"unknown param", "poisson@0-10:rate=1,burst=2"},
		{"duplicate param", "poisson@0-10:rate=1,rate=2"},
		{"foreign param", "poisson@0-10:rate=1,amp=0.5"},
		{"mmpp missing hi", "mmpp@0-10:rate=1,dwell=5"},
		{"mmpp missing dwell", "mmpp@0-10:rate=1,hi=2"},
		{"mmpp zero hidwell", "mmpp@0-10:rate=1,hi=2,dwell=5,hidwell=0"},
		{"wave missing amp", "wave@0-10:rate=1,period=5"},
		{"wave amp above one", "wave@0-10:rate=1,amp=1.5,period=5"},
		{"wave zero period", "wave@0-10:rate=1,amp=0.5,period=0"},
		{"flash missing at", "flash@0-10:rate=1,peak=2,hold=1"},
		{"flash at outside window", "flash@0-10:rate=1,peak=2,at=10,hold=1"},
		{"flash zero hold", "flash@0-10:rate=1,peak=2,at=5,hold=0"},
		{"ramp missing to", "ramp@0-10:rate=0"},
		{"ramp both zero", "ramp@0-10:rate=0,to=0"},
		{"mix no weight", "poisson@0-10:rate=1,mix=int"},
		{"mix empty class", "poisson@0-10:rate=1,mix=:1"},
		{"mix zero weight", "poisson@0-10:rate=1,mix=int:0"},
		{"mix duplicate class", "poisson@0-10:rate=1,mix=int:1/int:2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got, err := ParseArrivals(c.spec); err == nil {
				t.Fatalf("accepted %q: %+v", c.spec, got)
			}
		})
	}
}

// TestFormatArrivalsRoundTrip: FormatArrivals is the exact inverse of
// ParseArrivals on canonical phases.
func TestFormatArrivalsRoundTrip(t *testing.T) {
	spec := "poisson@0-600:rate=0.25,mix=batch:1/int:2.5;" +
		"mmpp@600-1200:rate=0.1,hi=0.5,dwell=200,hidwell=50;" +
		"wave@0-3600:rate=0.2,amp=0.5,period=1200;" +
		"flash@0-3600:rate=0.01,peak=1,at=1800,hold=120;" +
		"ramp@1200-1800:rate=0.1,to=0.4"
	phases, err := ParseArrivals(spec)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	formatted := FormatArrivals(phases)
	again, err := ParseArrivals(formatted)
	if err != nil {
		t.Fatalf("reparse of %q: %v", formatted, err)
	}
	if !reflect.DeepEqual(phases, again) {
		t.Fatalf("round trip changed phases:\n was %+v\n got %+v", phases, again)
	}
	if FormatArrivals(again) != formatted {
		t.Fatalf("format not stable:\n was %q\n got %q", formatted, FormatArrivals(again))
	}
}

// FuzzParseArrivals: whatever the input, an accepted spec must be
// well-formed (finite windows and rates, positive weights) and must
// survive a format/parse round trip unchanged — reports render workloads
// with FormatArrivals for replay.
func FuzzParseArrivals(f *testing.F) {
	for _, seed := range []string{
		"poisson@0-600:rate=0.25",
		"poisson@0-600:rate=0.25,mix=int:6/batch:3/bulk:1",
		"mmpp@600-1200:rate=0.1,hi=0.5,dwell=200",
		"mmpp@0-10:rate=1,hi=2,dwell=5,hidwell=1",
		"wave@0-3600:rate=0.2,amp=0.5,period=1200",
		"flash@0-3600:rate=0.01,peak=1,at=1800,hold=120",
		"ramp@1200-1800:rate=0.1,to=0.4",
		"ramp@0-10:rate=0,to=1",
		"poisson@0-1:rate=1; wave@1-2:rate=1,amp=1,period=0.5 ;;",
		"poisson@0.5-600.25:rate=0.0001",
		"poisson@0-1e3:rate=1E-2",
		"poisson@0-10:rate=NaN",
		"flash@0-10:rate=1,peak=2,at=11,hold=1",
		"burst@0-10:rate=1",
		";;;",
		"poisson@@:rate=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		phases, err := ParseArrivals(spec)
		if err != nil {
			return
		}
		if len(phases) == 0 {
			t.Fatalf("accepted %q but returned no phases", spec)
		}
		for _, p := range phases {
			if math.IsNaN(p.Start) || p.Start < 0 || math.IsInf(p.End, 0) || p.End <= p.Start {
				t.Fatalf("accepted %q with bad window [%v, %v)", spec, p.Start, p.End)
			}
			for _, v := range []float64{p.Rate, p.Hi, p.Dwell, p.HiDwell, p.Amp, p.Period, p.Peak, p.FlashAt, p.Hold, p.To} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("accepted %q with bad parameter %v", spec, v)
				}
			}
			if p.peakRate() <= 0 && p.Kind != "flash" && p.Kind != "mmpp" {
				t.Fatalf("accepted %q with zero peak rate", spec)
			}
			for i, m := range p.Mix {
				if !validClassName(m.Class) || m.Weight <= 0 {
					t.Fatalf("accepted %q with bad mix entry %+v", spec, m)
				}
				if i > 0 && p.Mix[i-1].Class >= m.Class {
					t.Fatalf("accepted %q with unsorted mix %+v", spec, p.Mix)
				}
			}
		}
		formatted := FormatArrivals(phases)
		again, err := ParseArrivals(formatted)
		if err != nil {
			t.Fatalf("round trip of %q failed: %v (formatted %q)", spec, err, formatted)
		}
		if !reflect.DeepEqual(phases, again) {
			t.Fatalf("round trip of %q changed phases:\n was %+v\n got %+v", spec, phases, again)
		}
	})
}
