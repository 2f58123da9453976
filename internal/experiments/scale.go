package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"grads/internal/shardsim"
)

// ScaleVariant is one row of the scaling curve: a kernel architecture run
// over the identical 10k-node workload, with its wall-clock time and its
// virtual end state (which must match the oracle's exactly on the per-site
// fabric).
type ScaleVariant struct {
	Name         string
	Shards       int
	SharedFabric bool
	Wall         time.Duration
	Result       *shardsim.Result
	StatsMatch   bool // virtual stats equal to the shards=1 per-site run
}

// RunScaleCurve runs the 10k-node synthetic workload (16 mega-sites x 640
// nodes; see shardsim.ScaleConfig) under the pre-sharding single-kernel
// architecture and under the sharded kernel at 1, 2, 4 and 8 shards,
// measuring wall-clock time. The virtual end state of every per-site-fabric
// run must be identical; the shared-fabric baseline must agree on the
// workload-level counters. Wall-clock numbers vary by host, so the scale
// experiment is excluded from `gradsim -exp all` and from the determinism
// contract — BENCH_shard.json is its CI-gated form.
func RunScaleCurve(seed int64) ([]ScaleVariant, error) {
	variants := []ScaleVariant{
		{Name: "single-kernel", Shards: 1, SharedFabric: true},
		{Name: "sharded x1", Shards: 1},
		{Name: "sharded x2", Shards: 2},
		{Name: "sharded x4", Shards: 4},
		{Name: "sharded x8", Shards: 8},
	}
	var oracle *shardsim.Result
	for i := range variants {
		v := &variants[i]
		cfg := shardsim.ScaleConfig(seed)
		cfg.Shards = v.Shards
		cfg.SharedFabric = v.SharedFabric
		start := time.Now()
		r := shardsim.RunScenario(cfg)
		v.Wall = time.Since(start)
		v.Result = r
		if len(r.Violations) > 0 {
			return nil, fmt.Errorf("scale: %s violated invariants: %s",
				v.Name, strings.Join(r.Violations, "; "))
		}
		if v.SharedFabric {
			// The legacy fabric partitions bandwidth over a different flow
			// universe, so only the workload counters are comparable.
			continue
		}
		if oracle == nil {
			oracle = r
			v.StatsMatch = true
			continue
		}
		v.StatsMatch = r.FinalTime == oracle.FinalTime &&
			r.Events == oracle.Events && r.Rounds == oracle.Rounds &&
			r.Delivered == oracle.Delivered && r.JobsDone == oracle.JobsDone &&
			r.JobsRequeued == oracle.JobsRequeued
		if !v.StatsMatch {
			return nil, fmt.Errorf("scale: %s diverged from the sharded x1 oracle", v.Name)
		}
	}
	for i := range variants {
		v := &variants[i]
		if !v.SharedFabric {
			continue
		}
		r, o := v.Result, oracle
		v.StatsMatch = r.JobsDone == o.JobsDone && r.HaloAcked == o.HaloAcked &&
			r.CkptAcked == o.CkptAcked && r.LeaseGranted == o.LeaseGranted
		if !v.StatsMatch {
			return nil, fmt.Errorf("scale: shared-fabric workload counters diverged")
		}
	}
	return variants, nil
}

// FormatScale renders the scaling curve.
func FormatScale(vs []ScaleVariant) string {
	base := vs[0].Wall.Seconds()
	t := &Table{Header: []string{"variant", "shards", "wall_s", "speedup", "events", "rounds", "jobs_done", "stats"}}
	for _, v := range vs {
		stats := "match"
		if !v.StatsMatch {
			stats = "DIVERGED"
		}
		t.Add(v.Name, fmt.Sprint(v.Shards), fmt.Sprintf("%.2f", v.Wall.Seconds()),
			fmt.Sprintf("%.2fx", base/v.Wall.Seconds()),
			fmt.Sprint(v.Result.Events), fmt.Sprint(v.Result.Rounds),
			fmt.Sprint(v.Result.JobsDone), stats)
	}
	r := vs[0].Result
	return t.String() + fmt.Sprintf(
		"\n10240 nodes over 16 sites; %d jobs done, %d requeued, %.0f MB staged,\n"+
			"%d crash commands, %d recoveries. speedup is single-kernel wall time\n"+
			"over the variant's; the per-site-fabric rows are byte-equivalent.\n",
		r.JobsDone, r.JobsRequeued, r.StagedMB, r.CrashCmds, r.Recoveries)
}

// scaleSmokeCase names one seeded smoke workload of the shard-equivalence
// suite.
type scaleSmokeCase struct {
	name string
	cfg  shardsim.ScenarioConfig
}

// RunScaleSmoke runs the three seeded smoke workloads (chaos, contention,
// soak) on the sharded kernel at o.Shards kernels (gradsim -shards) and
// reports their virtual end state plus an FNV-64a hash of the canonical
// merged trace. Every line is shard-count-invariant: the CI
// shard-equivalence job diffs the full stdout and the replayed JSONL of
// `-shards 1` against `-shards 4`. When a telemetry hub is installed the
// merged traces are replayed into it, so -trace-jsonl captures the exact
// event stream whose hash is printed.
func RunScaleSmoke(o Options) (string, error) {
	cases := []scaleSmokeCase{
		{"chaos", shardsim.ChaosSmokeConfig(o.SeedOr(11))},
		{"contention", shardsim.ContentionSmokeConfig(o.SeedOr(23))},
		{"soak", shardsim.SoakSmokeConfig(o.SeedOr(5))},
	}
	t := &Table{Header: []string{"workload", "seed", "vtime_s", "events", "rounds", "delivered",
		"jobs", "requeues", "acks", "leases", "trace_fnv64a", "trace_bytes"}}
	for _, c := range cases {
		c.cfg.Shards = o.Shards
		r := shardsim.RunScenario(c.cfg)
		if len(r.Violations) > 0 {
			return "", fmt.Errorf("scale-smoke %s: invariants violated: %s",
				c.name, strings.Join(r.Violations, "; "))
		}
		trace := r.MergedTrace()
		h := fnv.New64a()
		h.Write(trace)
		t.Add(c.name, fmt.Sprint(c.cfg.Seed), fmt.Sprintf("%.3f", r.FinalTime),
			fmt.Sprint(r.Events), fmt.Sprint(r.Rounds), fmt.Sprint(r.Delivered),
			fmt.Sprint(r.JobsDone), fmt.Sprint(r.JobsRequeued),
			fmt.Sprintf("%d+%d", r.HaloAcked, r.CkptAcked),
			fmt.Sprintf("%d/%d", r.LeaseGranted, r.LeaseDenied),
			fmt.Sprintf("%016x", h.Sum64()), fmt.Sprint(len(trace)))
		if o.Telemetry != nil {
			r.ReplayInto(o.Telemetry)
		}
	}
	return t.String(), nil
}
