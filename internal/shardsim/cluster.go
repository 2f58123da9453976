// Package shardsim runs the multi-site Grid emulation on several simcore
// kernels at once, synchronized conservatively. Each Site owns its own
// telemetry hub, RNG and netsim fabric (the dirty-component boundary the
// incremental solver computes is made structural: a site's LAN never shares
// a solver with another site's), and sites are assigned round-robin to
// shards — worker kernels that advance in barrier-synchronous rounds.
//
// Time synchronization is classic conservative (CMB-style) lookahead: the
// minimum WAN latency between any two sites bounds how far ahead of the
// global lower bound on timestamps (LBTS) any shard may safely run. Every
// round the coordinator computes T, the earliest pending event or in-flight
// message anywhere, opens the window [T, H) with H = max(T+minLookahead,
// nextafter(T)), injects every message due before H, and lets all shards
// process their queues up to (but excluding) H in parallel. A message sent
// at time t carries Deliver >= t + minLookahead >= H, so nothing sent during
// a round can land inside it.
//
// Determinism is by construction rather than by locking: the round sequence
// depends only on event and delivery timestamps, which are site-local facts;
// messages are injected at barriers in a canonical (Deliver, Src, send-seq)
// order; and each site's behavior depends only on its own timestamped
// inputs. Runs with any shard count — including the single-kernel oracle at
// Shards=1, which executes the identical round structure inline on one
// kernel — therefore produce byte-identical merged traces (see MergedTrace
// and the differential tests).
package shardsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"grads/internal/netsim"
	"grads/internal/simcore"
	"grads/internal/telemetry"
)

// Config configures a Cluster.
type Config struct {
	// Shards is the requested number of worker kernels. It is clamped to
	// [1, number of sites], and forced to 1 when any WAN pair has
	// non-positive latency (no lookahead — the oracle path) or when
	// SharedFabric is set.
	Shards int

	// Seed derives every site's RNG and each shard kernel's seed.
	Seed int64

	// Trace attaches a buffer sink to every site hub so MergedTrace can
	// reconstruct the canonical global stream. Benchmarks leave it off.
	Trace bool

	// SharedFabric recreates the pre-sharding architecture for baseline
	// benchmarks: one kernel and ONE netsim.Network carrying every site's
	// LAN link, so every flow event pays the global all-flows costs the
	// per-site fabrics eliminate. It forces Shards=1. Traces from a shared
	// fabric are not byte-comparable to per-site-fabric runs (the solver's
	// advance partition differs), so it is excluded from equivalence
	// checks and used only by BENCH_shard.
	SharedFabric bool
}

// Message is one cross-site event in flight. Payload fields are plain data
// (no pointers) so a message can cross shard goroutines without sharing.
type Message struct {
	Deliver  float64 // arrival virtual time at Dst
	Src, Dst int     // site indices
	Kind     int     // scenario-defined discriminator
	A, B     int64   // scenario payload
	F        float64 // scenario payload

	seq uint64 // per-sender send sequence; breaks same-instant ties
}

// Handler consumes a delivered message on the destination site's shard.
type Handler func(s *Site, m Message)

// Site is one logical site of the emulated Grid: a name, its place in the
// WAN, and site-private simulation state. All fields are owned by the shard
// the site is assigned to; nothing here is shared across shards.
type Site struct {
	Idx  int
	Name string

	Sim *simcore.Sim         // the shard kernel this site runs on
	Tel *telemetry.Telemetry // site-local hub; clock bound to Sim
	Net *netsim.Network      // site-local fabric (shared in SharedFabric mode)
	LAN *netsim.Link         // the site LAN inside Net
	RNG *rand.Rand           // site-private; never draw from Sim.Rand

	cl       *Cluster
	shard    int
	buf      *telemetry.Buffer
	handler  Handler
	outbox   []Message
	sendSeq  uint64
	nextFree []float64 // per destination: when this directed WAN path frees up
}

// OnMessage installs the site's message handler. It must be set before the
// cluster runs if the site can receive messages.
func (s *Site) OnMessage(h Handler) { s.handler = h }

// Emit publishes a trace event through the site's hub when tracing is on
// (a no-op otherwise, so benchmark runs skip the sink entirely). The hub
// stamps the event with the shard kernel's virtual time and the site-local
// sequence number; MergedTrace later orders events globally by
// (T, site, seq).
func (s *Site) Emit(e telemetry.Event) {
	if s.buf == nil {
		return
	}
	s.Tel.Emit(e)
}

// Send transmits a message of size bytes to site dst, serializing on this
// site's directed WAN path to dst (back-to-back sends queue behind each
// other) and paying the pair latency. It returns the delivery time. The
// computation uses only sender-local state, so delivery times are identical
// under any shard placement. Sending to self panics: local causality has no
// lookahead, use the kernel directly.
func (s *Site) Send(dst, kind int, a, b int64, f, bytes float64) float64 {
	if dst == s.Idx {
		panic(fmt.Sprintf("shardsim: site %d sending to itself", dst))
	}
	lat := s.cl.latency[s.Idx][dst]
	if math.IsNaN(lat) {
		panic(fmt.Sprintf("shardsim: sites %d and %d are not connected", s.Idx, dst))
	}
	start := s.Sim.Now()
	if nf := s.nextFree[dst]; nf > start {
		start = nf
	}
	var tx float64
	if bytes > 0 {
		tx = bytes / s.cl.bandwidth[s.Idx][dst]
	}
	s.nextFree[dst] = start + tx
	deliver := start + tx + lat
	s.sendSeq++
	s.outbox = append(s.outbox, Message{
		Deliver: deliver, Src: s.Idx, Dst: dst,
		Kind: kind, A: a, B: b, F: f, seq: s.sendSeq,
	})
	return deliver
}

// shard is one worker kernel plus its barrier-round plumbing.
type shard struct {
	sim   *simcore.Sim
	bound chan float64
	done  chan struct{}
}

// Cluster owns the shards, the WAN matrix and the inter-shard mail. Build
// one with NewCluster, add sites and WAN links, Finalize, install scenario
// state, then Run.
type Cluster struct {
	cfg   Config
	sites []*Site

	// WAN matrix, symmetric. latency NaN = unconnected.
	latency   [][]float64
	bandwidth [][]float64

	decls []siteDecl
	conns []connDecl

	shards       []*shard
	minLA        float64
	forcedOracle bool
	finalized    bool

	pending       [][]Message // per destination site, messages awaiting injection
	injectScratch []Message

	rounds    uint64
	delivered uint64
}

// siteDecl holds AddSite parameters until Finalize builds the kernels.
type siteDecl struct {
	name          string
	lanBW, lanLat float64
}

// connDecl holds Connect parameters until Finalize builds the WAN matrix.
type connDecl struct {
	i, j    int
	bw, lat float64
}

// NewCluster creates an empty cluster.
func NewCluster(cfg Config) *Cluster {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	return &Cluster{cfg: cfg}
}

// AddSite declares a site with a LAN of the given bandwidth (bytes/s) and
// latency (seconds) and returns its index. Sites must be declared before
// Finalize.
func (c *Cluster) AddSite(name string, lanBW, lanLat float64) int {
	if c.finalized {
		panic("shardsim: AddSite after Finalize")
	}
	c.decls = append(c.decls, siteDecl{name, lanBW, lanLat})
	return len(c.decls) - 1
}

// Connect declares the symmetric WAN path between sites i and j with the
// given bandwidth (bytes/s) and latency (seconds). Must be called for every
// pair that exchanges messages, before Finalize.
func (c *Cluster) Connect(i, j int, bw, lat float64) {
	if c.finalized {
		panic("shardsim: Connect after Finalize")
	}
	c.conns = append(c.conns, connDecl{i, j, bw, lat})
}

// Finalize builds the shard kernels and per-site state. The effective shard
// count is Config.Shards clamped to the site count, forced to 1 when the
// minimum WAN latency is non-positive (zero lookahead: conservative windows
// cannot open, so the single-kernel oracle path is used) or when
// SharedFabric is set.
func (c *Cluster) Finalize() {
	if c.finalized {
		panic("shardsim: Finalize twice")
	}
	c.finalized = true
	ds, cs := c.decls, c.conns
	c.decls, c.conns = nil, nil
	n := len(ds)
	if n == 0 {
		panic("shardsim: no sites")
	}

	c.latency = make([][]float64, n)
	c.bandwidth = make([][]float64, n)
	for i := range c.latency {
		c.latency[i] = make([]float64, n)
		c.bandwidth[i] = make([]float64, n)
		for j := range c.latency[i] {
			c.latency[i][j] = math.NaN()
		}
	}
	c.minLA = math.Inf(1)
	for _, cn := range cs {
		c.latency[cn.i][cn.j], c.latency[cn.j][cn.i] = cn.lat, cn.lat
		c.bandwidth[cn.i][cn.j], c.bandwidth[cn.j][cn.i] = cn.bw, cn.bw
		if cn.lat < c.minLA {
			c.minLA = cn.lat
		}
	}
	if len(cs) > 0 && c.minLA <= 0 {
		c.forcedOracle = true
	}

	shards := c.cfg.Shards
	if shards > n {
		shards = n
	}
	if c.forcedOracle || c.cfg.SharedFabric {
		shards = 1
	}
	c.shards = make([]*shard, shards)
	for i := range c.shards {
		c.shards[i] = &shard{sim: simcore.New(c.cfg.Seed + int64(i)*7907)}
	}

	var sharedNet *netsim.Network
	if c.cfg.SharedFabric {
		sharedNet = netsim.New(c.shards[0].sim)
	}

	c.sites = make([]*Site, n)
	c.pending = make([][]Message, n)
	for i, d := range ds {
		sh := i % shards
		sim := c.shards[sh].sim
		s := &Site{
			Idx:      i,
			Name:     d.name,
			Sim:      sim,
			Tel:      telemetry.New(),
			RNG:      rand.New(rand.NewSource(c.cfg.Seed + 104729*int64(i+1))),
			cl:       c,
			shard:    sh,
			nextFree: make([]float64, n),
		}
		if c.cfg.Trace {
			s.buf = telemetry.NewBuffer()
			s.Tel.AddSink(s.buf)
		}
		s.Tel.SetClock(sim.Now)
		if sharedNet != nil {
			s.Net = sharedNet
		} else {
			s.Net = netsim.New(sim)
		}
		s.LAN = s.Net.AddLink("lan/"+d.name, d.lanBW, d.lanLat)
		c.sites[i] = s
	}
}

// Sites returns the cluster's sites in index order.
func (c *Cluster) Sites() []*Site { return c.sites }

// Shards returns the effective shard count after Finalize.
func (c *Cluster) Shards() int { return len(c.shards) }

// ForcedOracle reports whether zero lookahead forced the single-kernel
// oracle path regardless of the requested shard count.
func (c *Cluster) ForcedOracle() bool { return c.forcedOracle }

// Rounds returns the number of barrier rounds executed so far.
func (c *Cluster) Rounds() uint64 { return c.rounds }

// Delivered returns the number of cross-site messages injected so far.
func (c *Cluster) Delivered() uint64 { return c.delivered }

// EventsFired sums fired kernel events over all shards.
func (c *Cluster) EventsFired() uint64 {
	var n uint64
	for _, sh := range c.shards {
		n += sh.sim.EventsFired()
	}
	return n
}

// Run executes barrier rounds until no shard has a pending event and no
// message is in flight, and returns the latest shard virtual time.
func (c *Cluster) Run() float64 { return c.RunUntil(math.Inf(1)) }

// RunUntil executes barrier rounds while the global lower bound on
// timestamps is <= horizon, then returns the latest shard virtual time.
// Events and messages beyond the horizon stay queued.
func (c *Cluster) RunUntil(horizon float64) float64 {
	if !c.finalized {
		panic("shardsim: Run before Finalize")
	}
	parallel := len(c.shards) > 1
	if parallel {
		for _, sh := range c.shards {
			sh.bound = make(chan float64)
			sh.done = make(chan struct{})
			go func(sh *shard) {
				for b := range sh.bound {
					sh.sim.RunBefore(b)
					sh.done <- struct{}{}
				}
			}(sh)
		}
	}
	for {
		// T: the global lower bound on anything that can still happen.
		T := math.Inf(1)
		for _, sh := range c.shards {
			if t, ok := sh.sim.NextEventTime(); ok && t < T {
				T = t
			}
		}
		for _, q := range c.pending {
			for _, m := range q {
				if m.Deliver < T {
					T = m.Deliver
				}
			}
		}
		if T > horizon || math.IsInf(T, 1) {
			break
		}
		// Round window [T, H). Messages sent inside it deliver at or after
		// T+minLA <= H, so they cannot land inside the window; nextafter
		// guarantees progress when the lookahead underflows at large T.
		H := math.Nextafter(T, math.Inf(1))
		if th := T + c.minLA; th > H {
			H = th
		}
		c.inject(H)
		c.rounds++
		if parallel {
			for _, sh := range c.shards {
				sh.bound <- H
			}
			for _, sh := range c.shards {
				<-sh.done
			}
		} else {
			c.shards[0].sim.RunBefore(H)
		}
		c.collect()
	}
	if parallel {
		for _, sh := range c.shards {
			close(sh.bound)
		}
	}
	var now float64
	for _, sh := range c.shards {
		if t := sh.sim.Now(); t > now {
			now = t
		}
	}
	return now
}

// inject schedules every pending message due before bound onto its
// destination site, visiting destinations in site-index order and messages
// in (Deliver, Src, send-seq) order — the canonical order that makes the
// injection (and hence each destination kernel's sequence numbering)
// independent of shard placement.
func (c *Cluster) inject(bound float64) {
	for dst, q := range c.pending {
		due := c.injectScratch[:0]
		rest := q[:0]
		for _, m := range q {
			if m.Deliver < bound {
				due = append(due, m)
			} else {
				rest = append(rest, m)
			}
		}
		c.injectScratch = due[:0]
		c.pending[dst] = rest
		if len(due) == 0 {
			continue
		}
		sort.Slice(due, func(a, b int) bool {
			if due[a].Deliver != due[b].Deliver {
				return due[a].Deliver < due[b].Deliver
			}
			if due[a].Src != due[b].Src {
				return due[a].Src < due[b].Src
			}
			return due[a].seq < due[b].seq
		})
		s := c.sites[dst]
		for _, m := range due {
			m := m
			s.Sim.At(m.Deliver, func() { s.handler(s, m) })
			c.delivered++
		}
	}
}

// collect drains every site's outbox into the per-destination pending
// queues, in site-index order. It runs at the barrier, after all shards
// have parked.
func (c *Cluster) collect() {
	for _, s := range c.sites {
		for _, m := range s.outbox {
			c.pending[m.Dst] = append(c.pending[m.Dst], m)
		}
		s.outbox = s.outbox[:0]
	}
}
