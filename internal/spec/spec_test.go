package spec

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestEntries(t *testing.T) {
	got := Entries(" a@1:x ;;b ; ")
	if want := []string{"a@1:x", "", "b", ""}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Entries = %q, want %q", got, want)
	}
}

func TestHead(t *testing.T) {
	kind, when, rest, err := Head(" CRASH @ 10-20 : lan:UT : 0.5 ")
	if err != nil || kind != "crash" || when != "10-20" || rest != "lan:UT : 0.5" {
		t.Fatalf("Head = %q %q %q %v", kind, when, rest, err)
	}
}

func TestWindow(t *testing.T) {
	for _, tc := range []struct {
		in         string
		start, end float64
	}{
		{"5", 5, 0},
		{" 1.5 - 2 ", 1.5, 2},
		{"0-0.0000001", 0, 1e-7},
	} {
		if start, end, err := Window(tc.in); err != nil || start != tc.start || end != tc.end {
			t.Errorf("Window(%q) = %v, %v, %v; want %v, %v", tc.in, start, end, err, tc.start, tc.end)
		}
	}
}

func TestParams(t *testing.T) {
	got, err := Params(" n = 4 ,ccr=0.5,name=")
	want := []Param{{"n", "4"}, {"ccr", "0.5"}, {"name", ""}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Params = %q, %v; want %q", got, err, want)
	}
}

func TestErrors(t *testing.T) {
	head := func(s string) error { _, _, _, err := Head(s); return err }
	window := func(s string) error { _, _, err := Window(s); return err }
	params := func(s string) error { _, err := Params(s); return err }
	float := func(s string) error { _, err := Float(s); return err }
	for _, tc := range []struct {
		name    string
		lex     func(string) error
		in      string
		wantErr string
	}{
		{"head without at", head, "crash:10:a", "missing '@'"},
		{"head without colon", head, "crash@10", "missing ':'"},
		{"window bad time", window, "ten", `bad time "ten"`},
		{"window empty", window, "", `bad time ""`},
		{"window negative", window, "-5", `bad start time ""`},
		{"window bad start", window, "x-10", `bad start time "x"`},
		{"window bad end", window, "10-y", `bad end time "y"`},
		{"window reversed", window, "40-10", "end 10 not after start 40"},
		{"window empty span", window, "4-4", "end 4 not after start 4"},
		{"window exponent dash", window, "1e-7", `bad start time "1e"`},
		{"params bare key", params, "n=1,w", `bad param "w" (want key=value)`},
		{"params blank item", params, "n=1,", `bad param "" (want key=value)`},
		{"params empty", params, "", `bad param ""`},
		{"params duplicate", params, "n=1, n =2", `duplicate key "n"`},
		{"float word", float, "four", `"four" is not a number`},
		{"float NaN", float, "NaN", `"NaN" is out of range`},
		{"float infinity", float, " -Inf ", `"-Inf" is out of range`},
		{"float overflow", float, "1e400", "is not a number"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.lex(tc.in)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%q: error %v, want one containing %q", tc.in, err, tc.wantErr)
			}
		})
	}
}

func TestJoin(t *testing.T) {
	if got := Join([]stringer{"a@1:x", "b"}); got != "a@1:x;b" {
		t.Fatalf("Join = %q", got)
	}
}

type stringer string

func (s stringer) String() string { return string(s) }

// FuzzFmt: every finite non-negative value renders in fixed notation —
// no exponent and no '-', so it cannot split a window — and reparses
// through Float to the same bits. The extremes (1e-7, the smallest
// subnormal, the largest float) are seeds under testdata/fuzz.
func FuzzFmt(f *testing.F) {
	for _, v := range []float64{0, 1, 0.25} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Signbit(v) {
			return
		}
		s := Fmt(v)
		if strings.ContainsAny(s, "e-") {
			t.Fatalf("Fmt(%v) = %q has an exponent or a dash", v, s)
		}
		back, err := Float(s)
		if err != nil || math.Float64bits(back) != math.Float64bits(v) {
			t.Fatalf("Float(Fmt(%v)) = %v, %v (via %q)", v, back, err, s)
		}
	})
}
