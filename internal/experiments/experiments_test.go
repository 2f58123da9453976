package experiments

import (
	"math"
	"testing"

	"grads/internal/swap"
	"grads/internal/topology"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{Header: []string{"a", "long-header"}}
	tab.Add("xxxxxx", "1")
	s := tab.String()
	if len(s) == 0 || s[0] != 'a' {
		t.Fatalf("table render wrong:\n%s", s)
	}
}

func TestNewEnvWiring(t *testing.T) {
	env := NewEnv(1, topology.QRTestbed, "app", 10)
	if env.GIS == nil || env.Storage == nil || env.Binder == nil || env.RSS == nil || env.Weather == nil {
		t.Fatal("env incompletely wired")
	}
	if !env.GIS.HasSoftware("utk1", "scalapack") {
		t.Fatal("standard software not registered")
	}
	if env.Storage.Depot("uiuc3") == nil {
		t.Fatal("depots not created everywhere")
	}
	env.Weather.Stop()
}

// TestFig3Shape verifies the paper's §4.1.2 findings end to end:
// checkpoint reads dominate migration cost, writes are insignificant,
// rescheduling pays only above the crossover, and the worst-case-cost
// rescheduler makes the paper's wrong decision near the crossover.
func TestFig3Shape(t *testing.T) {
	cfg := DefaultFig3Config()
	cfg.Sizes = []int{6000, 8000, 12000}
	rows, err := RunFig3(Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byN := map[int]Fig3Row{}
	for _, r := range rows {
		byN[r.N] = r
	}
	for _, r := range rows {
		read := r.Migrate.Sum("checkpoint reading", 0)
		write := r.Migrate.Sum("checkpoint writing", 0)
		if read < 10*write {
			t.Errorf("N=%d: read %v does not dominate write %v", r.N, read, write)
		}
		if r.ViolationAt <= 0 {
			t.Errorf("N=%d: no contract violation detected", r.N)
		}
	}
	if byN[6000].MigrationHelps {
		t.Error("N=6000: migration should not pay (cost overshadows benefit)")
	}
	if !byN[12000].MigrationHelps {
		t.Error("N=12000: migration should pay")
	}
	// Larger problems benefit more (remaining lifetime grows as N^3, cost
	// as N^2).
	gain8 := byN[8000].StayTotal - byN[8000].MigrateTotal
	gain12 := byN[12000].StayTotal - byN[12000].MigrateTotal
	if gain12 <= gain8 {
		t.Errorf("benefit not growing with size: %v (8000) vs %v (12000)", gain8, gain12)
	}
	// The paper's wrong decision near the crossover: the 900s worst-case
	// rescheduler stays although migration actually helps at N=8000, while
	// the honest estimate migrates.
	if byN[8000].WorstCaseDecision {
		t.Error("N=8000: worst-case rescheduler should (wrongly) stay")
	}
	if !byN[8000].HonestDecision {
		t.Error("N=8000: honest estimate should migrate")
	}
	if math.Abs(byN[8000].ActualCost-byN[8000].HonestCost) > 0.3*byN[8000].ActualCost {
		t.Errorf("honest cost estimate %v far from actual %v",
			byN[8000].HonestCost, byN[8000].ActualCost)
	}
	if FormatFig3(rows) == "" || FormatFig3Decisions(rows) == "" {
		t.Error("formatting empty")
	}
}

// TestFig4Shape verifies the §4.2.2 demonstration: progress slows when the
// competitive load lands at t=80 and recovers after the rescheduler swaps
// all three working processes to the UIUC cluster.
func TestFig4Shape(t *testing.T) {
	r, err := RunFig4(Options{}, DefaultFig4Config())
	if err != nil {
		t.Fatal(err)
	}
	if r.Swaps != 3 {
		t.Fatalf("swaps = %d, want all 3 working processes migrated", r.Swaps)
	}
	for _, st := range r.SwapTimes {
		if st < r.LoadAt {
			t.Fatalf("swap at %v before the load at %v", st, r.LoadAt)
		}
		if st > 150 {
			t.Fatalf("swap at %v, want completed by t=150 like the paper", st)
		}
	}
	if r.Completed <= 0 || r.BaseDone <= 0 {
		t.Fatal("runs did not complete within the horizon")
	}
	if r.Completed >= r.BaseDone {
		t.Fatalf("swapping (%v) did not beat no-swap (%v)", r.Completed, r.BaseDone)
	}
	// Slope comparison: iterations per second before load, under load
	// (baseline), and after the swap.
	preRate := progressRate(r.Progress, 10, r.LoadAt)
	postRate := progressRate(r.Progress, 160, 240)
	loadedRate := progressRate(r.Baseline, 100, 400)
	if loadedRate >= 0.6*preRate {
		t.Fatalf("baseline under load not degraded: %v vs %v iters/s", loadedRate, preRate)
	}
	if postRate < 0.8*loadedRate*2 {
		t.Fatalf("post-swap rate %v did not recover (loaded %v)", postRate, loadedRate)
	}
	if FormatFig4(r, 20) == "" {
		t.Error("formatting empty")
	}
}

// progressRate estimates iterations per second between two times.
func progressRate(marks []swap.IterMark, t0, t1 float64) float64 {
	firstIter, lastIter := -1, -1
	firstT, lastT := 0.0, 0.0
	for _, m := range marks {
		if m.Time < t0 || m.Time > t1 {
			continue
		}
		if firstIter < 0 {
			firstIter, firstT = m.Iter, m.Time
		}
		lastIter, lastT = m.Iter, m.Time
	}
	if firstIter < 0 || lastT == firstT {
		return 0
	}
	return float64(lastIter-firstIter) / (lastT - firstT)
}

// TestEMANShape verifies §3.3: every heuristic beats random, best-of-three
// is no worse than any single heuristic, and the schedule spans both
// architectures.
func TestEMANShape(t *testing.T) {
	res, err := RunEMAN(Options{}, DefaultEMANConfig())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]EMANResult{}
	for _, r := range res {
		byName[r.Strategy] = r
	}
	random := byName["random"]
	best := byName["best-of-3"]
	for _, h := range []string{"min-min", "max-min", "sufferage"} {
		r := byName[h]
		if r.Makespan >= random.Makespan {
			t.Errorf("%s (%v) not better than random (%v)", h, r.Makespan, random.Makespan)
		}
		if best.Makespan > r.Makespan+1e-9 {
			t.Errorf("best-of-3 (%v) worse than %s (%v)", best.Makespan, h, r.Makespan)
		}
		if r.Simulated <= 0 {
			t.Errorf("%s: schedule did not execute", h)
		}
	}
	if best.IA64Used == 0 || best.IA32Used == 0 {
		t.Errorf("heterogeneity not exercised: ia32=%d ia64=%d", best.IA32Used, best.IA64Used)
	}
	if FormatEMAN(res) == "" {
		t.Error("formatting empty")
	}
}

func TestHeuristicsShape(t *testing.T) {
	cfg := DefaultHeurConfig()
	cfg.Trials = 6
	res, err := RunHeuristics(Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var randomMean float64
	minHeur := math.Inf(1)
	for _, r := range res {
		if r.Strategy == "random" {
			randomMean = r.MeanMakespan
		} else if r.MeanMakespan < minHeur {
			minHeur = r.MeanMakespan
		}
	}
	if minHeur >= randomMean {
		t.Fatalf("heuristics (%v) not better than random (%v)", minHeur, randomMean)
	}
	w, err := RunRankWeights(Options{}, cfg, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if w[0].MeanMakespan <= w[1].MeanMakespan {
		t.Fatalf("ignoring data costs (w2=0: %v) should hurt vs w2=1 (%v)",
			w[0].MeanMakespan, w[1].MeanMakespan)
	}
	if FormatHeuristics(res) == "" || FormatRankWeights(w) == "" {
		t.Error("formatting empty")
	}
}

func TestSwapPoliciesShape(t *testing.T) {
	res, err := RunSwapPolicies(Options{}, DefaultFig4Config())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SwapPolicyResult{}
	for _, r := range res {
		byName[r.Policy] = r
	}
	if byName["none"].Swaps != 0 {
		t.Error("none policy swapped")
	}
	for _, p := range []string{"greedy", "threshold", "gang"} {
		r := byName[p]
		if r.Completion <= 0 {
			t.Errorf("%s: did not complete", p)
			continue
		}
		if r.Completion >= byName["none"].Completion {
			t.Errorf("%s (%v) not better than none (%v)", p, r.Completion, byName["none"].Completion)
		}
	}
	if byName["gang"].Completion > byName["greedy"].Completion {
		t.Error("gang policy should beat per-machine greedy for a synchronized app")
	}
	if FormatSwapPolicies(res) == "" {
		t.Error("formatting empty")
	}
}

func TestOpportunisticShape(t *testing.T) {
	r, err := RunOpportunistic(Options{}, DefaultOpportunisticConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.MigratedAt <= 0 {
		t.Fatal("opportunistic migration never triggered")
	}
	if r.MigratedAt < r.ShortDone-1 {
		t.Fatalf("migration at %v before the short job finished at %v", r.MigratedAt, r.ShortDone)
	}
	if r.LongTotal >= r.LongBaseline {
		t.Fatalf("opportunistic (%v) not better than pinned (%v)", r.LongTotal, r.LongBaseline)
	}
	if r.Decision.Target[0].Site().Name != "UTK" {
		t.Fatalf("migrated to %s, want the freed UTK cluster", r.Decision.Target[0].Site().Name)
	}
	if FormatOpportunistic(r) == "" {
		t.Error("formatting empty")
	}
}

// TestFaultToleranceShape verifies the extension: a crash without
// checkpoints restarts from scratch; periodic checkpoints bound the lost
// work and beat scratch restart; checkpoint overhead grows as the interval
// shrinks.
func TestFaultToleranceShape(t *testing.T) {
	res, err := RunFault(Options{}, DefaultFaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	byInterval := map[int]FaultResult{}
	for _, r := range res {
		byInterval[r.Interval] = r
	}
	baseline := byInterval[-1]
	scratch := byInterval[0]
	ckpt20 := byInterval[20]
	ckpt5 := byInterval[5]
	if baseline.Recoveries != 0 || scratch.Recoveries != 1 {
		t.Fatalf("recovery counts wrong: %+v", res)
	}
	if scratch.Total <= baseline.Total {
		t.Fatal("a crash should cost something")
	}
	if scratch.CkptRead != 0 {
		t.Fatal("scratch restart must not restore")
	}
	if ckpt20.Total >= scratch.Total {
		t.Fatalf("checkpointed recovery (%v) not better than scratch (%v)",
			ckpt20.Total, scratch.Total)
	}
	if ckpt20.CkptRead <= 0 {
		t.Fatal("checkpointed recovery did not restore")
	}
	if ckpt5.CkptWrite <= ckpt20.CkptWrite {
		t.Fatal("shorter interval should write more checkpoint data")
	}
	if FormatFault(res) == "" {
		t.Error("formatting empty")
	}
}

// TestValidationShape verifies the §1/§4.2 claim that the controlled
// emulation reproduces testbed behavior: the MicroGrid and the MacroGrid
// slice agree on the swap scenario within a few percent.
func TestValidationShape(t *testing.T) {
	r, err := RunValidation(Options{}, DefaultFig4Config())
	if err != nil {
		t.Fatal(err)
	}
	if r.MicroCompletion <= 0 || r.MacroCompletion <= 0 {
		t.Fatal("runs did not complete")
	}
	rel := math.Abs(r.MicroCompletion-r.MacroCompletion) / r.MacroCompletion
	if rel > 0.10 {
		t.Fatalf("testbeds disagree by %.1f%% on completion", rel*100)
	}
	if r.MaxProgressSkew > 0.10 {
		t.Fatalf("progress skew %.1f%% too large", r.MaxProgressSkew*100)
	}
	if r.MicroSwapAt <= 0 || r.MacroSwapAt <= 0 {
		t.Fatal("swaps missing on one testbed")
	}
	if FormatValidation(r) == "" {
		t.Error("formatting empty")
	}
}

// TestEconomyShape reproduces the cited G-commerce comparison: the
// commodities market yields smoother prices than auctions at comparable
// utilization.
func TestEconomyShape(t *testing.T) {
	res, err := RunEconomy(DefaultEconomyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d formulations", len(res))
	}
	cm, au := res[0], res[1]
	if cm.PriceVolatility >= au.PriceVolatility {
		t.Fatalf("commodity volatility %v not smoother than auction %v",
			cm.PriceVolatility, au.PriceVolatility)
	}
	if cm.MeanUtilization < 0.4 || au.MeanUtilization < 0.4 {
		t.Fatalf("utilization collapsed: %+v", res)
	}
	if FormatEconomy(res) == "" {
		t.Error("formatting empty")
	}
}

// TestEconomyRepeatable: same-seed runs agree to the last bit. Each round's
// mean price sums a per-site price map, so summing in map order made
// PriceVolatility and FinalMeanPrice differ in their low bits between runs.
func TestEconomyRepeatable(t *testing.T) {
	bits := func(res []EconomyResult) [][3]uint64 {
		out := make([][3]uint64, len(res))
		for i, r := range res {
			out[i] = [3]uint64{math.Float64bits(r.PriceVolatility),
				math.Float64bits(r.MeanUtilization), math.Float64bits(r.FinalMeanPrice)}
		}
		return out
	}
	var first [][3]uint64
	for run := 0; run < 50; run++ {
		res, err := RunEconomy(DefaultEconomyConfig())
		if err != nil {
			t.Fatal(err)
		}
		got := bits(res)
		if run == 0 {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("run %d, %s: bits %x, first run %x", run, res[i].Formulation, got[i], first[i])
			}
		}
	}
}

// TestWeatherShape verifies the forecasting ablation: under bursty cross
// traffic, long-horizon NWS forecasts dominate instantaneous measurements
// for migration decisions.
func TestWeatherShape(t *testing.T) {
	res, err := RunWeather(Options{}, DefaultWeatherConfig())
	if err != nil {
		t.Fatal(err)
	}
	nws, inst := res[0], res[1]
	if nws.Agreements <= inst.Agreements {
		t.Fatalf("forecasts (%d/%d) not better than instantaneous (%d/%d)",
			nws.Agreements, nws.Trials, inst.Agreements, inst.Trials)
	}
	if nws.MeanCostErr >= inst.MeanCostErr {
		t.Fatalf("forecast cost error %v not below instantaneous %v",
			nws.MeanCostErr, inst.MeanCostErr)
	}
	if nws.MeanCostErr > 0.3 {
		t.Fatalf("forecast cost error %v too large", nws.MeanCostErr)
	}
	if FormatWeather(res) == "" {
		t.Error("formatting empty")
	}
}
