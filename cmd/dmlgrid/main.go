// Command dmlgrid validates a DML grid description (the MicroGrid-style
// configuration format) and prints the resulting resource inventory,
// routes, and an NWS snapshot after a warm-up period.
//
// Usage:
//
//	dmlgrid path/to/grid.dml
//	dmlgrid -warmup 120 path/to/grid.dml
//	echo 'site A bw=1Gb lat=100us ...' | dmlgrid -
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"grads/internal/nws"
	"grads/internal/simcore"
	"grads/internal/topology"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, reads the description from the
// named file or from stdin ("-"), writes the inventory to stdout and
// diagnostics to stderr, and returns the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmlgrid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	warmup := fs.Float64("warmup", 60, "virtual seconds of NWS measurements before the snapshot")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: dmlgrid [-warmup s] <file.dml | ->")
		return 2
	}

	var text []byte
	var err error
	if fs.Arg(0) == "-" {
		text, err = io.ReadAll(stdin)
	} else {
		text, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(stderr, "dmlgrid:", err)
		return 1
	}

	sim := simcore.New(1)
	grid, err := topology.ParseDML(sim, string(text))
	if err != nil {
		fmt.Fprintln(stderr, "dmlgrid:", err)
		return 1
	}

	fmt.Fprintf(stdout, "grid: %d sites, %d nodes\n\n", len(grid.Sites()), len(grid.Nodes()))
	for _, site := range grid.Sites() {
		fmt.Fprintf(stdout, "site %-8s LAN %.1f MB/s, %.2f ms, %d nodes\n",
			site.Name, site.LAN.Capacity()/1e6, site.LAN.Latency()*1e3, len(site.Nodes()))
		for _, n := range site.Nodes() {
			fmt.Fprintf(stdout, "  %-12s %-5s %6.0f MHz  %6.2f Gflop/s  %6.0f MB  L2 %d KB\n",
				n.Name(), n.Spec.Arch, n.Spec.MHz, n.Spec.Flops()/1e9,
				n.Spec.MemMB, n.Spec.Cache.L2KB)
		}
	}

	fmt.Fprintln(stdout, "\nWAN links:")
	sites := grid.Sites()
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			if w := grid.WAN(sites[i].Name, sites[j].Name); w != nil {
				fmt.Fprintf(stdout, "  %s <-> %s  %.2f MB/s, %.1f ms\n",
					sites[i].Name, sites[j].Name, w.Capacity()/1e6, w.Latency()*1e3)
			}
		}
	}

	if *warmup > 0 && len(grid.Nodes()) > 1 {
		weather := nws.Start(sim, grid, 10)
		sim.RunUntil(*warmup)
		fmt.Fprintf(stdout, "\nNWS snapshot after %.0fs of measurements:\n", *warmup)
		for i := range sites {
			for j := i + 1; j < len(sites); j++ {
				if grid.WAN(sites[i].Name, sites[j].Name) == nil {
					continue
				}
				fmt.Fprintf(stdout, "  %s <-> %s  forecast %.2f MB/s, %.1f ms\n",
					sites[i].Name, sites[j].Name,
					weather.BandwidthForecast(sites[i].Name, sites[j].Name)/1e6,
					weather.LatencyForecast(sites[i].Name, sites[j].Name)*1e3)
			}
		}
		weather.Stop()
	}
	return 0
}
