package shardsim

import (
	"bytes"
	"testing"

	"grads/internal/simtest"
	"grads/internal/telemetry"
)

// runVariant runs one scenario at a shard count and fails the test on any
// invariant violation.
func runVariant(t *testing.T, cfg ScenarioConfig, shards int) *Result {
	t.Helper()
	cfg.Shards = shards
	r := RunScenario(cfg)
	for _, v := range r.Violations {
		t.Errorf("shards=%d invariant violated: %s", shards, v)
	}
	return r
}

// checkEquivalence proves byte-identical merged traces and identical virtual
// stats between the single-kernel oracle and every sharded run.
func checkEquivalence(t *testing.T, cfg ScenarioConfig) {
	t.Helper()
	oracle := runVariant(t, cfg, 1)
	if oracle.Shards != 1 {
		t.Fatalf("oracle ran with %d shards", oracle.Shards)
	}
	ref := oracle.MergedTrace()
	if len(ref) == 0 {
		t.Fatal("oracle produced an empty trace")
	}
	for _, n := range []int{2, 4, 8} {
		r := runVariant(t, cfg, n)
		if d := simtest.FirstDiff(ref, r.MergedTrace()); d != "" {
			t.Fatalf("shards=%d trace diverges from oracle: %s", n, d)
		}
		if r.FinalTime != oracle.FinalTime || r.Events != oracle.Events ||
			r.Rounds != oracle.Rounds || r.Delivered != oracle.Delivered ||
			r.JobsDone != oracle.JobsDone || r.JobsRequeued != oracle.JobsRequeued {
			t.Fatalf("shards=%d virtual stats diverge: %+v vs %+v", n, r, oracle)
		}
	}
}

func TestShardEquivalenceChaos(t *testing.T) {
	checkEquivalence(t, ChaosSmokeConfig(11))
}

func TestShardEquivalenceContention(t *testing.T) {
	checkEquivalence(t, ContentionSmokeConfig(23))
}

func TestShardEquivalenceSoak(t *testing.T) {
	checkEquivalence(t, SoakSmokeConfig(5))
}

func TestScenarioRunTwiceDeterminism(t *testing.T) {
	cfg := ChaosSmokeConfig(42)
	cfg.Shards = 4
	a := RunScenario(cfg).MergedTrace()
	b := RunScenario(cfg).MergedTrace()
	if d := simtest.FirstDiff(a, b); d != "" {
		t.Fatalf("same seed, same shards, different trace: %s", d)
	}
}

func TestSeedChangesTrace(t *testing.T) {
	a := RunScenario(ChaosSmokeConfig(1)).MergedTrace()
	b := RunScenario(ChaosSmokeConfig(2)).MergedTrace()
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical traces — seed is not wired through")
	}
}

// TestZeroLookaheadForcesOracle: a zero-latency WAN pair leaves no
// conservative window, so Finalize must fall back to the single-kernel
// oracle regardless of the requested shard count — and still run correctly.
func TestZeroLookaheadForcesOracle(t *testing.T) {
	c := NewCluster(Config{Shards: 4, Seed: 1, Trace: true})
	a := c.AddSite("a", 1e8, 1e-4)
	b := c.AddSite("b", 1e8, 1e-4)
	c.Connect(a, b, 1e6, 0) // zero lookahead
	c.Finalize()
	if !c.ForcedOracle() {
		t.Fatal("zero-lookahead pair did not force the oracle path")
	}
	if c.Shards() != 1 {
		t.Fatalf("forced oracle still built %d shards", c.Shards())
	}
	var got []int64
	for _, s := range c.Sites() {
		s := s
		s.OnMessage(func(s *Site, m Message) { got = append(got, m.A) })
	}
	sa := c.sites[a]
	sa.Sim.At(1, func() { sa.Send(b, 1, 7, 0, 0, 0) })
	c.Run()
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("message not delivered on oracle path: %v", got)
	}
}

// TestSameInstantCrossShard: messages from different source sites engineered
// to arrive at the same destination at the identical instant must resolve in
// deterministic (time, src, send-seq) order for every shard count.
func TestSameInstantCrossShard(t *testing.T) {
	build := func(shards int) []int64 {
		c := NewCluster(Config{Shards: shards, Seed: 9})
		const n = 5
		for i := 0; i < n; i++ {
			c.AddSite("s", 1e8, 1e-4)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				c.Connect(i, j, 1e6, 0.010) // identical latency everywhere
			}
		}
		c.Finalize()
		var got []int64
		for _, s := range c.Sites() {
			s.OnMessage(func(s *Site, m Message) {
				if s.Idx == n-1 {
					got = append(got, m.A)
				}
			})
		}
		// Sites 0..3 all send to site 4 at t=1 with zero payload: identical
		// delivery instant 1.010. Each also sends a second message (higher
		// send-seq) at the same instant.
		for i := 0; i < n-1; i++ {
			s := c.sites[i]
			id := int64(i)
			s.Sim.At(1, func() {
				s.Send(n-1, 1, id*10, 0, 0, 0)
				s.Send(n-1, 1, id*10+1, 0, 0, 0)
			})
		}
		c.Run()
		return got
	}
	want := []int64{0, 1, 10, 11, 20, 21, 30, 31}
	for _, shards := range []int{1, 2, 4, 5} {
		got := build(shards)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: got %v want %v", shards, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d same-instant order: got %v want %v", shards, got, want)
			}
		}
	}
}

// TestIdleShardAdvances: a site with no local events (its shard would sit at
// time 0 forever if rounds stalled on it) must still receive late messages,
// and the cluster must terminate.
func TestIdleShardAdvances(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		c := NewCluster(Config{Shards: shards, Seed: 3})
		a := c.AddSite("busy", 1e8, 1e-4)
		b := c.AddSite("idle", 1e8, 1e-4)
		d := c.AddSite("idle2", 1e8, 1e-4)
		for _, p := range [][2]int{{a, b}, {a, d}, {b, d}} {
			c.Connect(p[0], p[1], 1e6, 0.020)
		}
		c.Finalize()
		var idleGot []float64
		for _, s := range c.Sites() {
			s.OnMessage(func(s *Site, m Message) {
				if s.Idx == b {
					idleGot = append(idleGot, s.Sim.Now())
				}
			})
		}
		sa := c.sites[a]
		// The busy site churns locally for a while, then messages the idle one.
		for i := 1; i <= 100; i++ {
			sa.Sim.At(float64(i)*0.5, func() {})
		}
		sa.Sim.At(45, func() { sa.Send(b, 1, 1, 0, 0, 0) })
		end := c.Run()
		if len(idleGot) != 1 || idleGot[0] != 45.02 {
			t.Fatalf("shards=%d idle site delivery times %v, want [45.02]", shards, idleGot)
		}
		if end != 50 {
			t.Fatalf("shards=%d final time %v want 50", shards, end)
		}
	}
}

// TestRemoteCrashLandsOnRemoteShard: with shards=2 and an even/odd site
// split, every chaos command from site 0 targets a site on the other shard.
// The victims must requeue running jobs and recover, and the run must stay
// byte-identical to the oracle.
func TestRemoteCrashLandsOnRemoteShard(t *testing.T) {
	cfg := ChaosSmokeConfig(77)
	cfg.Sites = 2 // chaos targets site 1; with 2 shards it is always remote
	cfg.Crashes = 6
	cfg.CrashNodes = 20
	oracle := runVariant(t, cfg, 1)
	sharded := runVariant(t, cfg, 2)
	if sharded.Shards != 2 {
		t.Fatalf("expected 2 shards, got %d", sharded.Shards)
	}
	if oracle.CrashCmds == 0 || oracle.Recoveries == 0 {
		t.Fatalf("chaos never fired: %+v", oracle)
	}
	if oracle.JobsRequeued == 0 {
		t.Skip("no running job hit by the schedule; widen the schedule")
	}
	if d := simtest.FirstDiff(oracle.MergedTrace(), sharded.MergedTrace()); d != "" {
		t.Fatalf("remote-crash trace diverges: %s", d)
	}
}

// TestSharedFabricBaseline: the pre-sharding architecture must run the same
// workload to the same virtual quiescence (virtual stats match the per-site
// fabric) even though its trace bytes are not comparable.
func TestSharedFabricBaseline(t *testing.T) {
	cfg := ChaosSmokeConfig(11)
	ref := runVariant(t, cfg, 1)
	cfg.SharedFabric = true
	legacy := runVariant(t, cfg, 4)
	if legacy.Shards != 1 {
		t.Fatalf("shared fabric must force one kernel, got %d", legacy.Shards)
	}
	if legacy.JobsDone != ref.JobsDone || legacy.HaloAcked != ref.HaloAcked ||
		legacy.CkptAcked != ref.CkptAcked || legacy.LeaseGranted != ref.LeaseGranted {
		t.Fatalf("shared-fabric stats diverge: %+v vs %+v", legacy, ref)
	}
}

// TestReplayIntoPreservesOrder: replaying the merged stream through an
// external hub (the gradsim -trace-jsonl path) must keep timestamps and
// relative order.
func TestReplayIntoPreservesOrder(t *testing.T) {
	r := RunScenario(ChaosSmokeConfig(4))
	tel := telemetry.New()
	buf := telemetry.NewBuffer()
	tel.AddSink(buf)
	r.ReplayInto(tel)
	events := buf.Events()
	merged := r.cluster.MergedEvents()
	if len(events) != len(merged) || len(events) == 0 {
		t.Fatalf("replayed %d events, merged %d", len(events), len(merged))
	}
	for i := range events {
		if events[i].T != merged[i].T || events[i].Type != merged[i].Type {
			t.Fatalf("replay reordered event %d: %+v vs %+v", i, events[i], merged[i])
		}
		if events[i].Seq != uint64(i+1) {
			t.Fatalf("hub restamp broke seq at %d: %d", i, events[i].Seq)
		}
	}
}
