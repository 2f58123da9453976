package topology

import (
	"fmt"

	"grads/internal/simcore"
)

// Bandwidth and latency constants for the testbeds, in bytes/s and seconds.
const (
	Ethernet100 = 12.5e6 // 100 Mb/s switched Ethernet
	Myrinet     = 160e6  // 1.28 Gbit/s full-duplex Myrinet
	GigE        = 125e6  // Gigabit Ethernet
	Internet10  = 1.25e6 // ~10 Mb/s Internet path (2003-era inter-campus)

	LANLatency = 100e-6 // 100 µs switched-LAN latency
)

// Cache geometries for the processor generations in the testbeds.
var (
	cachePII     = CacheConfig{L1KB: 16, L2KB: 512, LineBytes: 32}
	cachePIII    = CacheConfig{L1KB: 16, L2KB: 256, LineBytes: 32}
	cacheAthlon  = CacheConfig{L1KB: 64, L2KB: 256, LineBytes: 64}
	cacheItanium = CacheConfig{L1KB: 16, L2KB: 256, LineBytes: 64}
)

// addCluster adds count identical nodes named prefix1..prefixN to a site.
func addCluster(g *Grid, site, prefix string, count int, arch Arch, mhz, fpc, memMB float64, cache CacheConfig) {
	for i := 1; i <= count; i++ {
		g.AddNode(NodeSpec{
			Name:          fmt.Sprintf("%s%d", prefix, i),
			Site:          site,
			Arch:          arch,
			MHz:           mhz,
			FlopsPerCycle: fpc,
			MemMB:         memMB,
			Cache:         cache,
		})
	}
}

// MacroGrid builds the full GrADS testbed from §1 of the paper: one cluster
// at UCSD (10 machines), two at UTK (24), two at UIUC (24), one at UH (24).
// Clock rates follow the machines named in the paper where given; the UH
// cluster contributes the IA-64 nodes used by the §3.3 heterogeneity
// demonstration. All sites are pairwise connected by Internet paths.
func MacroGrid(sim *simcore.Sim) *Grid {
	g := NewGrid(sim)

	g.AddSite("UCSD", GigE, LANLatency)
	addCluster(g, "UCSD", "ucsd", 10, ArchIA32, 1700, 0.8, 1024, cacheAthlon)

	g.AddSite("UTK", Ethernet100, LANLatency)
	addCluster(g, "UTK", "utk-a", 16, ArchIA32, 933, 0.5, 512, cachePIII)
	addCluster(g, "UTK", "utk-b", 8, ArchIA32, 550, 0.4, 256, cachePII)

	g.AddSite("UIUC", Myrinet, LANLatency)
	addCluster(g, "UIUC", "uiuc-a", 16, ArchIA32, 450, 0.4, 256, cachePII)
	addCluster(g, "UIUC", "uiuc-b", 8, ArchIA32, 1000, 0.6, 512, cachePIII)

	g.AddSite("UH", GigE, LANLatency)
	addCluster(g, "UH", "uh-ia64-", 12, ArchIA64, 900, 2.0, 2048, cacheItanium)
	addCluster(g, "UH", "uh-ia32-", 12, ArchIA32, 800, 0.5, 512, cachePIII)

	sites := []string{"UCSD", "UTK", "UIUC", "UH"}
	for i := 0; i < len(sites); i++ {
		for j := i + 1; j < len(sites); j++ {
			lat := 0.030
			if (sites[i] == "UTK" && sites[j] == "UIUC") || (sites[i] == "UIUC" && sites[j] == "UTK") {
				lat = 0.011
			}
			g.Connect(sites[i], sites[j], Internet10, lat)
		}
	}
	return g
}

// QRTestbed builds the §4.1.2 stop/restart experiment platform: 4 UTK
// machines (933 MHz dual-processor Pentium III, 100 Mb switched Ethernet)
// and 8 UIUC machines (450 MHz Pentium II, 1.28 Gbit/s Myrinet), the two
// clusters connected via the Internet. The sustained flops-per-cycle
// figures are calibrated to 2003-era ScaLAPACK efficiency on commodity
// clusters (~15% of clock on Ethernet, ~12% on the slower PII core), which
// reproduces the paper's hundreds-to-thousands-of-seconds QR runtimes and
// places the Figure 3 migration crossover near N=8000.
func QRTestbed(sim *simcore.Sim) *Grid {
	g := NewGrid(sim)
	g.AddSite("UTK", Ethernet100, LANLatency)
	addCluster(g, "UTK", "utk", 4, ArchIA32, 933, 0.15, 1024, cachePIII)
	g.AddSite("UIUC", Myrinet, LANLatency)
	addCluster(g, "UIUC", "uiuc", 8, ArchIA32, 450, 0.12, 512, cachePII)
	g.Connect("UTK", "UIUC", Internet10, 0.011)
	return g
}

// SyntheticSite returns the node specs of a synthetic mega-site: count
// nodes named prefix1..prefixN cycling through the testbed's processor
// generations (Athlon, PIII, PII, Itanium), so a large site is heterogeneous
// the way the MacroGrid is. The specs are pure data — no kernel, no Grid —
// which lets the sharded emulator (internal/shardsim) build 10k-node
// topologies without instantiating a CPU model per node.
func SyntheticSite(prefix string, count int) []NodeSpec {
	kinds := []NodeSpec{
		{Arch: ArchIA32, MHz: 1700, FlopsPerCycle: 0.8, MemMB: 1024, Cache: cacheAthlon},
		{Arch: ArchIA32, MHz: 933, FlopsPerCycle: 0.5, MemMB: 512, Cache: cachePIII},
		{Arch: ArchIA32, MHz: 450, FlopsPerCycle: 0.4, MemMB: 256, Cache: cachePII},
		{Arch: ArchIA64, MHz: 900, FlopsPerCycle: 2.0, MemMB: 2048, Cache: cacheItanium},
	}
	specs := make([]NodeSpec, count)
	for i := range specs {
		sp := kinds[i%len(kinds)]
		sp.Name = fmt.Sprintf("%s%d", prefix, i+1)
		sp.Site = prefix
		specs[i] = sp
	}
	return specs
}

// MicroGridTestbed builds the §4.2.2 virtual Grid: a 3-node UTK cluster
// (550 MHz Pentium II), a 3-node UIUC cluster (450 MHz Pentium II), both on
// Gigabit Ethernet LANs, and a single 1.7 GHz Athlon node at UCSD. The
// latency between UCSD and the other two sites is 30 ms; between UTK and
// UIUC it is 11 ms.
func MicroGridTestbed(sim *simcore.Sim) *Grid {
	g := NewGrid(sim)
	g.AddSite("UTK", GigE, LANLatency)
	addCluster(g, "UTK", "utk", 3, ArchIA32, 550, 0.4, 256, cachePII)
	g.AddSite("UIUC", GigE, LANLatency)
	addCluster(g, "UIUC", "uiuc", 3, ArchIA32, 450, 0.4, 256, cachePII)
	g.AddSite("UCSD", GigE, LANLatency)
	addCluster(g, "UCSD", "ucsd", 1, ArchIA32, 1700, 0.8, 1024, cacheAthlon)
	g.Connect("UTK", "UIUC", Ethernet100, 0.011)
	g.Connect("UCSD", "UTK", Ethernet100, 0.030)
	g.Connect("UCSD", "UIUC", Ethernet100, 0.030)
	return g
}
