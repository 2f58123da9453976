package autopilot

import (
	"grads/internal/simcore"
	"grads/internal/telemetry"
)

// Sensor supplies one measured value per sampling period. ok=false means no
// fresh measurement is available (e.g. the application is between phases);
// the monitor skips that tick.
type Sensor func() (value float64, ok bool)

// Contract is a performance contract (§4.1.1): the application promises
// phase durations predicted by its performance model; the monitor verifies
// the ratio of measured to predicted duration stays inside tolerance
// limits.
type Contract struct {
	Name      string
	Predicted Sensor // predicted phase duration
	Actual    Sensor // measured phase duration

	// Tolerance limits on the actual/predicted ratio. The monitor adjusts
	// them adaptively exactly as §4.1.1 describes.
	UpperLimit float64
	LowerLimit float64
}

// Violation is delivered to the violation handler when a contract breaks.
type Violation struct {
	Contract *Contract
	Time     float64
	Ratio    float64 // the ratio that triggered the check
	AvgRatio float64 // average of all computed ratios
	Severity float64 // fuzzy-logic severity in [0, 1]
}

// Monitor is the GrADS contract monitor: a periodic process that samples
// the contract's sensors, verifies the contract via the decision mechanism,
// and calls the violation handler (which contacts the rescheduler). If the
// handler declines to act, the monitor widens its tolerance limits; if
// performance is persistently better than predicted, it lowers them.
type Monitor struct {
	sim      *simcore.Sim
	contract *Contract
	period   float64
	engine   *Engine

	// OnViolation is invoked on a contract violation; it returns true if
	// corrective action was taken (e.g. the application migrated), false
	// if the monitor should adapt its limits instead.
	OnViolation func(v Violation) bool

	// Window bounds how many recent ratios enter the average (0 keeps
	// all). A bounded window keeps a long healthy history from masking a
	// fresh sustained slowdown.
	Window int

	ratios    []float64
	lastRatio float64
	proc      *simcore.Proc
	stopped   bool
	trace     []TickRecord

	violations int
	adjustUps  int
	adjustDown int
}

// NewMonitor creates a contract monitor sampling every period seconds.
// Limits default to [0.5, 2.0] when the contract leaves them zero.
func NewMonitor(sim *simcore.Sim, c *Contract, period float64) *Monitor {
	if c.UpperLimit <= 0 {
		c.UpperLimit = 2.0
	}
	if c.LowerLimit <= 0 {
		c.LowerLimit = 0.5
	}
	if period <= 0 {
		period = 10
	}
	return &Monitor{sim: sim, contract: c, period: period, engine: ViolationEngine(), Window: 10}
}

// Start spawns the monitoring process.
func (m *Monitor) Start() {
	m.proc = m.sim.Spawn("contract-monitor:"+m.contract.Name, m.run)
}

// Stop terminates the monitoring process.
func (m *Monitor) Stop() {
	m.stopped = true
	if m.proc != nil {
		m.proc.Kill()
	}
}

// AvgRatio returns the average of all computed ratios (0 with none).
func (m *Monitor) AvgRatio() float64 {
	if len(m.ratios) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range m.ratios {
		sum += r
	}
	return sum / float64(len(m.ratios))
}

func (m *Monitor) run(p *simcore.Proc) {
	for !m.stopped {
		if err := p.Sleep(m.period); err != nil {
			return
		}
		m.tick()
	}
}

// tick performs one §4.1.1 verification step.
func (m *Monitor) tick() {
	pred, okP := m.contract.Predicted()
	act, okA := m.contract.Actual()
	if !okP || !okA || pred <= 0 {
		return
	}
	ratio := act / pred
	trend := 0.0
	if m.lastRatio > 0 {
		trend = ratio - m.lastRatio
	}
	m.lastRatio = ratio
	m.ratios = append(m.ratios, ratio)
	if m.Window > 0 && len(m.ratios) > m.Window {
		m.ratios = m.ratios[len(m.ratios)-m.Window:]
	}

	severity := m.engine.Eval(map[string]float64{"ratio": ratio, "trend": trend})
	rec := TickRecord{
		Time:     m.sim.Now(),
		Ratio:    ratio,
		Lower:    m.contract.LowerLimit,
		Upper:    m.contract.UpperLimit,
		Severity: severity,
	}
	defer func() { m.recordTick(rec) }()
	if tel := m.sim.Telemetry(); tel != nil {
		tel.Histogram("autopilot", "contract_ratio").Observe(ratio)
		tel.Emit(telemetry.Event{
			Type: telemetry.EvContractTick, Comp: "autopilot", Name: m.contract.Name,
			Args: []telemetry.Arg{
				telemetry.F("ratio", ratio),
				telemetry.F("lower", m.contract.LowerLimit),
				telemetry.F("upper", m.contract.UpperLimit),
				telemetry.F("severity", severity),
			},
		})
	}

	switch {
	case ratio > m.contract.UpperLimit:
		avg := m.AvgRatio()
		if avg > m.contract.UpperLimit {
			m.violations++
			rec.Violation = true
			acted := false
			v := Violation{
				Contract: m.contract,
				Time:     m.sim.Now(),
				Ratio:    ratio,
				AvgRatio: avg,
				Severity: severity,
			}
			if tel := m.sim.Telemetry(); tel != nil {
				tel.Counter("autopilot", "violations").Inc()
				tel.Emit(telemetry.Event{
					Type: telemetry.EvContractViolation, Comp: "autopilot", Name: m.contract.Name,
					Args: []telemetry.Arg{
						telemetry.F("ratio", ratio),
						telemetry.F("avg_ratio", avg),
						telemetry.F("severity", severity),
					},
				})
			}
			if m.OnViolation != nil {
				acted = m.OnViolation(v)
			}
			if acted {
				// Corrective action taken: reset history so the new
				// execution is judged afresh.
				m.ratios = m.ratios[:0]
				m.lastRatio = 0
				return
			}
			// Rescheduler declined: adjust tolerance to the observed
			// level so the monitor stops re-reporting the same loss.
			m.contract.UpperLimit = avg * 1.1
			m.adjustUps++
		}
	case ratio < m.contract.LowerLimit:
		avg := m.AvgRatio()
		if avg < m.contract.LowerLimit {
			// Persistently better than predicted: lower the limits.
			m.contract.LowerLimit = avg * 0.9
			if newUpper := m.contract.UpperLimit * 0.9; newUpper > 1 {
				m.contract.UpperLimit = newUpper
			}
			m.adjustDown++
		}
	}
}
