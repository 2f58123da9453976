package metasched

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseStream(t *testing.T) {
	entries, err := ParseStream("farm@25:tasks=24,w=4,bid=3; qr@0:n=3000,w=8,min=4,bid=40")
	if err != nil {
		t.Fatal(err)
	}
	want := []StreamEntry{
		{Kind: "qr", Submit: 0, N: 3000, Width: 8, MinWidth: 4, Bid: 40},
		{Kind: "farm", Submit: 25, Tasks: 24, Width: 4, Bid: 3},
	}
	if !reflect.DeepEqual(entries, want) {
		t.Fatalf("ParseStream = %+v, want %+v", entries, want)
	}
	if got := FormatStream(entries); got != "qr@0:n=3000,w=8,min=4,bid=40;farm@25:tasks=24,w=4,bid=3" {
		t.Fatalf("FormatStream = %q", got)
	}
	// Spaces around tokens and upper-case kinds parse to the plain form.
	spaced, err := ParseStream(" FARM @ 25 : tasks = 24 , w=4 ,bid= 3;Qr@ 0:n=3000, w=8,min =4,bid=40 ")
	if err != nil || !reflect.DeepEqual(spaced, want) {
		t.Fatalf("spaced stream parsed to %+v (%v), want %+v", spaced, err, want)
	}
}

func TestParseStreamRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"qr@0:w=8",                          // missing n
		"farm@0:w=8",                        // missing tasks
		"qr@0:n=100",                        // missing w
		"qr@0:n=100,w=4,min=8",              // min > w
		"qr@-1:n=100,w=4",                   // negative submit
		"qr@Inf:n=100,w=4",                  // non-finite submit
		"qr@0:n=100,w=4,bid=NaN",            // non-finite bid
		"qr@0:n=100,w=4,bid=0",              // non-positive bid
		"qr@0:n=100,w=4,w=5",                // duplicate key
		"qr@0:tasks=4,w=4",                  // farm-only key on qr
		"mpi@0:n=100,w=4",                   // unknown kind
		"qr@0:n=100,w=4,weight=2",           // unknown key
		"qr@0:n=2.5,w=4",                    // non-integer shape
		"qr@0:n=-100,w=4",                   // negative shape
		"qr@0:n=100,w=4;;bogus",             // trailing garbage entry
		"qr@0:n=9999999999999999999999,w=4", // integer overflow
	} {
		if _, err := ParseStream(bad); err == nil {
			t.Errorf("ParseStream(%q) accepted", bad)
		}
	}
}

// FuzzParseStream drives the -jobs grammar parser with arbitrary input: no
// panics, every accepted stream satisfies the broker's submission
// preconditions, and accepted streams round-trip exactly through
// FormatStream.
func FuzzParseStream(f *testing.F) {
	for _, seed := range []string{
		"qr@0:n=3000,w=8,min=4,bid=40;farm@25:tasks=24,w=4,bid=3",
		"qr@0:n=2000,w=4",
		"farm@100.5:tasks=16,w=2,est=350",
		"farm@3:tasks=8,w=2;qr@3:n=500,w=2",
		" qr@1:n=10,w=1,min=1,bid=0.1,est=2 ; farm@1:tasks=1,w=1 ",
		"qr@1e2:n=10,w=1",
		"qr@0:n=10,w=1,bid=Inf",
		"qr@@:n=1,w=1",
		";;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, stream string) {
		entries, err := ParseStream(stream)
		if err != nil {
			return
		}
		if len(entries) == 0 {
			t.Fatalf("accepted %q but returned no entries", stream)
		}
		for _, e := range entries {
			if e.Kind != "qr" && e.Kind != "farm" {
				t.Fatalf("accepted %q with kind %q", stream, e.Kind)
			}
			if math.IsNaN(e.Submit) || math.IsInf(e.Submit, 0) || e.Submit < 0 {
				t.Fatalf("accepted %q with bad submit %v", stream, e.Submit)
			}
			if e.Kind == "qr" && (e.N <= 0 || e.Tasks != 0) {
				t.Fatalf("accepted %q with qr shape n=%d tasks=%d", stream, e.N, e.Tasks)
			}
			if e.Kind == "farm" && (e.Tasks <= 0 || e.N != 0) {
				t.Fatalf("accepted %q with farm shape n=%d tasks=%d", stream, e.N, e.Tasks)
			}
			if e.Width <= 0 || e.MinWidth < 0 || e.MinWidth > e.Width {
				t.Fatalf("accepted %q with widths w=%d min=%d", stream, e.Width, e.MinWidth)
			}
			if e.Bid < 0 || math.IsNaN(e.Bid) || math.IsInf(e.Bid, 0) {
				t.Fatalf("accepted %q with bid %v", stream, e.Bid)
			}
			if e.Est < 0 || math.IsNaN(e.Est) || math.IsInf(e.Est, 0) {
				t.Fatalf("accepted %q with est %v", stream, e.Est)
			}
		}
		out := FormatStream(entries)
		if strings.Contains(out, "\n") {
			t.Fatalf("formatted stream of %q contains a newline: %q", stream, out)
		}
		again, err := ParseStream(out)
		if err != nil {
			t.Fatalf("round trip of %q failed: %v (formatted %q)", stream, err, out)
		}
		if !reflect.DeepEqual(entries, again) {
			t.Fatalf("round trip of %q changed the stream:\n was %+v\n got %+v", stream, entries, again)
		}
	})
}
