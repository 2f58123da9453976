package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

const twoSites = `
site A bw=1Gb lat=100us
site B bw=100Mb lat=1ms
cluster a count=2 site=A
cluster b count=2 site=B mhz=900
wan A B bw=10Mb lat=20ms
`

// siteA declares site A for the rejected-input cases.
const siteA = "site A bw=1Gb lat=100us\n"

// TestRun: a valid description on stdin prints the inventory and exits 0, a
// malformed one exits 1 with the parse error, and a missing argument is a
// usage error (exit 2).
func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stdin  string
		code   int
		stdout []string // each must appear in stdout
		tail   string   // stdout must end with it
		stderr string   // must appear in stderr
		runs   int      // when above 1, every run must print the same stderr
	}{
		{
			name: "valid-stdin", args: []string{"-warmup", "30", "-"}, stdin: twoSites, code: 0,
			stdout: []string{"grid: 2 sites, 4 nodes", "site A", "a1 ", "A <-> B", "NWS snapshot after 30s"},
		},
		{
			// Site names may hold the '|' of a WAN link's name.
			name: "bar-in-site-names", args: []string{"-warmup", "0", "-"},
			stdin: "site A|B bw=1Gb lat=100us\nsite C bw=1Gb lat=100us\nsite A bw=1Gb lat=100us\n" +
				"site B|C bw=1Gb lat=100us\nwan A|B C bw=10Mb lat=20ms\nwan A B|C bw=100Mb lat=5ms\n",
			code: 0,
			tail: "WAN links:\n  A <-> B|C  12.50 MB/s, 5.0 ms\n  A|B <-> C  1.25 MB/s, 20.0 ms\n",
		},
		{name: "malformed", args: []string{"-"}, stdin: "site A bw=fast\n", code: 1, stderr: "dmlgrid:"},
		{
			name: "duplicate-site", args: []string{"-"}, stdin: siteA + siteA, code: 1,
			stderr: `dmlgrid: dml: line 2: duplicate site "A"`,
		},
		{
			name: "duplicate-node", args: []string{"-"}, stdin: siteA + "node n site=A\nnode n site=A\n", code: 1,
			stderr: `dmlgrid: dml: line 3: duplicate node "n"`,
		},
		{
			name: "duplicate-cluster-node", args: []string{"-"}, stdin: siteA + "node a2 site=A\ncluster a count=3 site=A\n", code: 1,
			stderr: `dmlgrid: dml: line 3: duplicate node "a2"`,
		},
		{
			name: "node-unknown-site", args: []string{"-"}, stdin: siteA + "node n site=B\n", code: 1,
			stderr: `dmlgrid: dml: line 2: node "n": unknown site "B"`,
		},
		{
			name: "wan-unknown-site", args: []string{"-"}, stdin: siteA + "wan A B bw=10Mb lat=20ms\n", code: 1,
			stderr: `dmlgrid: dml: line 2: wan A B: unknown site "B"`,
		},
		{
			name: "duplicate-wan", args: []string{"-"},
			stdin: siteA + "site B bw=1Gb lat=100us\nwan A B bw=10Mb lat=20ms\nwan B A bw=10Mb lat=20ms\n", code: 1,
			stderr: `dmlgrid: dml: line 4: duplicate wan B A`,
		},
		{
			name: "duplicate-key", args: []string{"-"}, stdin: siteA + "node n site=A mhz=100 mhz=900\n", code: 1,
			stderr: `dmlgrid: dml: line 2: duplicate key "mhz"`,
		},
		{
			name: "duplicate-count", args: []string{"-"}, stdin: siteA + "cluster a count=2 site=A count=3\n", code: 1,
			stderr: `dmlgrid: dml: line 2: duplicate key "count"`,
		},
		{
			name: "nan-mhz", args: []string{"-"}, stdin: siteA + "node n site=A mhz=NaN\n", code: 1,
			stderr: `dmlgrid: dml: line 2: bad mhz: "NaN" is out of range`,
		},
		{
			name: "overlong-line", args: []string{"-"}, stdin: siteA + "# " + strings.Repeat("x", 70000) + "\n", code: 1,
			stderr: `dmlgrid: dml: line 2: bufio.Scanner: token too long`,
		},
		{
			name: "first-bad-attribute", args: []string{"-"}, stdin: siteA + "node x site=A mhz=abc fpc=xyz bogus=1\n", code: 1,
			stderr: `dmlgrid: dml: line 2: bad mhz: "abc" is not a number`, runs: 50,
		},
		{name: "no-argument", args: nil, code: 2, stderr: "usage: dmlgrid"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, strings.NewReader(c.stdin), &stdout, &stderr)
			for i := 1; i < c.runs; i++ {
				var again bytes.Buffer
				run(c.args, strings.NewReader(c.stdin), io.Discard, &again)
				if again.String() != stderr.String() {
					t.Fatalf("run %d printed %q, the first printed %q", i+1, again.String(), stderr.String())
				}
			}
			if code != c.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, c.code, stderr.String())
			}
			for _, want := range c.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
			if !strings.HasSuffix(stdout.String(), c.tail) {
				t.Errorf("stdout does not end with %q:\n%s", c.tail, stdout.String())
			}
			if c.code != 0 && stdout.Len() != 0 {
				t.Errorf("failed run wrote to stdout: %q", stdout.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q lacks %q", stderr.String(), c.stderr)
			}
		})
	}
}
