package main

import (
	"bytes"
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
		stderr string   // must appear in stderr
	}{
		{
			name: "valid-stdin", args: []string{"-warmup", "30", "-"}, stdin: twoSites, code: 0,
			stdout: []string{"grid: 2 sites, 4 nodes", "site A", "a1 ", "A <-> B", "NWS snapshot after 30s"},
		},
		{name: "malformed", args: []string{"-"}, stdin: "site A bw=fast\n", code: 1, stderr: "dmlgrid:"},
		{name: "no-argument", args: nil, code: 2, stderr: "usage: dmlgrid"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, strings.NewReader(c.stdin), &stdout, &stderr)
			if code != c.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, c.code, stderr.String())
			}
			for _, want := range c.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
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
