package chaossoak

import (
	"fmt"
	"math/rand"
	"sort"

	"grads/internal/apps"
	"grads/internal/cop"
	"grads/internal/faultinject"
	"grads/internal/metasched"
	"grads/internal/topology"
)

// buildSchedule layers the mixed fault mix over the background per-node
// crash process: two site-wide storms, checkpoint-corruption windows, a WAN
// partition and a WAN degradation, and an outage or lag window per grid
// service. Every window starts inside [0, Horizon) and ends by Horizon;
// only crash repairs may spill slightly past it (their End is exponential).
func buildSchedule(rng *rand.Rand, grid *topology.Grid, cfg Config) []faultinject.Event {
	names := make([]string, 0, len(grid.Nodes()))
	for _, n := range grid.Nodes() {
		names = append(names, n.Name())
	}
	sort.Strings(names)

	events := faultinject.GenerateNodeFaults(rng, names, cfg.MTBF, cfg.MTTR, cfg.Horizon)

	h := cfg.Horizon
	// jitter places a window start near a fraction of the horizon, with a
	// little seeded spread so distinct seeds see distinct alignments.
	jitter := func(frac float64) float64 { return h * (frac + 0.03*rng.Float64()) }

	at := jitter(0.22)
	events = append(events, faultinject.Event{
		Kind: faultinject.KindStorm, Start: at, End: at + 40, Target: "uiuc", Value: 3,
	})
	at = jitter(0.55)
	events = append(events, faultinject.Event{
		Kind: faultinject.KindStorm, Start: at, End: at + 30, Target: "utk", Value: 2,
	})

	at = jitter(0.32)
	events = append(events, faultinject.Event{
		Kind: faultinject.KindCkptCorrupt, Start: at, End: at + h*0.08, Target: names[1],
	})
	at = jitter(0.62)
	events = append(events, faultinject.Event{
		Kind: faultinject.KindCkptCorrupt, Start: at, End: at + h*0.06, Target: names[len(names)-2],
	})

	at = jitter(0.40)
	events = append(events, faultinject.Event{
		Kind: faultinject.KindLinkDown, Start: at, End: at + 20, Target: "wan:UIUC|UTK",
	})
	at = jitter(0.70)
	events = append(events, faultinject.Event{
		Kind: faultinject.KindLinkSlow, Start: at, End: at + h*0.05, Target: "wan:UIUC|UTK", Value: 0.5,
	})

	at = jitter(0.28)
	events = append(events, faultinject.Event{
		Kind: faultinject.KindOutage, Start: at, End: at + 25, Target: "gis",
	})
	at = jitter(0.48)
	events = append(events, faultinject.Event{
		Kind: faultinject.KindLag, Start: at, End: at + 60, Target: "nws", Value: 0.5,
	})
	at = jitter(0.58)
	events = append(events, faultinject.Event{
		Kind: faultinject.KindOutage, Start: at, End: at + 20, Target: "binder",
	})
	at = jitter(0.76)
	events = append(events, faultinject.Event{
		Kind: faultinject.KindOutage, Start: at, End: at + 15, Target: "ibp",
	})

	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Target < b.Target
	})
	return events
}

// soakClass is one job template in the generated stream.
type soakClass struct {
	kind     string
	width    int
	minWidth int
	est      float64
	make_    func(width int) func(*metasched.AppContext) (cop.COP, error)
}

// soakClasses is the three-way workload mix: a ScaLAPACK QR (iterative,
// panel checkpoints), a wide task farm, and a narrow task farm.
func soakClasses() []soakClass {
	return []soakClass{
		{
			kind: "qr", width: 4, minWidth: 2, est: 40,
			make_: func(width int) func(*metasched.AppContext) (cop.COP, error) {
				return func(c *metasched.AppContext) (cop.COP, error) {
					q, err := apps.NewQR(c.Grid, c.RSS, c.Binder, 1500, 50)
					if err != nil {
						return nil, err
					}
					q.SetMaxProcs(width)
					q.CheckpointEvery = 3
					return q, nil
				}
			},
		},
		{
			kind: "farm-wide", width: 6, minWidth: 3, est: 35,
			make_: func(width int) func(*metasched.AppContext) (cop.COP, error) {
				return func(c *metasched.AppContext) (cop.COP, error) {
					f, err := apps.NewTaskFarm(c.Grid, c.RSS, c.Binder, c.Weather, 18, 5e9, width)
					if err != nil {
						return nil, err
					}
					f.CheckpointEvery = 2
					return f, nil
				}
			},
		},
		{
			kind: "farm-small", width: 3, minWidth: 2, est: 20,
			make_: func(width int) func(*metasched.AppContext) (cop.COP, error) {
				return func(c *metasched.AppContext) (cop.COP, error) {
					f, err := apps.NewTaskFarm(c.Grid, c.RSS, c.Binder, c.Weather, 8, 3e9, width)
					if err != nil {
						return nil, err
					}
					f.CheckpointEvery = 2
					return f, nil
				}
			},
		},
	}
}

// buildStream generates the seeded submission stream: cfg.Jobs submissions
// cycling through the class mix, arrivals spread over the first 60% of the
// horizon so late arrivals still meet live faults, bids spread so the
// priority-backfill policy has real contention to arbitrate.
func buildStream(rng *rand.Rand, cfg Config) []metasched.JobSpec {
	classes := soakClasses()
	specs := make([]metasched.JobSpec, 0, cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		cl := classes[i%len(classes)]
		specs = append(specs, metasched.JobSpec{
			Name:       fmt.Sprintf("%s-%02d", cl.kind, i),
			Kind:       cl.kind,
			Submit:     rng.Float64() * cfg.Horizon * 0.6,
			Width:      cl.width,
			MinWidth:   cl.minWidth,
			Bid:        1 + rng.Float64()*4,
			EstRuntime: cl.est,
			Make:       cl.make_(cl.width),
		})
	}
	return specs
}
