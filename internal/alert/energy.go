package alert

import (
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/stats"
)

// The online energy meter is the live counterpart of dvfsreplay's
// offline reconstruction: each (workload, device) stream charges its
// decision events to a platform.Ledger, the same ledger the
// reconstruction drives, through obs.ChargeEvent — the idle gap before
// the job and the predictor slice at the from-level, the DVFS
// transition, the execution at the chosen level. The one segment it
// cannot charge is the replay's final drain to the horizon (the trace
// has not ended yet), so on an identical trace the exec, predictor and
// switch energies are equal and the idle energies differ by exactly that
// drain; the cross-validation test asserts both.
//
// It runs as a tracer sink on the decision path, so Emit is
// //dvfs:hotpath: table lookups under one short mutex, with
// allocations confined to the first event of a new stream.

// EnergyConfig wires an EnergyMeter.
type EnergyConfig struct {
	// Platform prices events that do not carry a platform name (the
	// common case: this daemon's own serving). Required for those
	// events to be metered; events naming an unknown platform are
	// counted in Skipped rather than guessed at.
	Platform *platform.Platform
	// BudgetW is the average power budget per stream in watts; > 0
	// enables the fast/slow burn-rate windows (obs.FastBurnWindow and
	// obs.SlowBurnWindow decisions) exported as
	// dvfsd_energy_budget_burn.
	BudgetW float64
}

const (
	// energyMinSamples gates burn reporting until a window has enough
	// decisions to mean anything.
	energyMinSamples = 16
	// energyMaxKeys bounds tracked (workload, device) streams; excess
	// folds into the obs.OverflowKey stream, so totals stay accurate
	// while memory stays bounded.
	energyMaxKeys = 64
)

// streamKey identifies one metered stream. A struct key keeps the hot
// path's map lookup allocation-free.
type streamKey struct {
	workload, device string
}

// energyStream is one (workload, device) accumulator.
type energyStream struct {
	led *platform.Ledger // nil for an unknown platform

	jobs       int64   // events that contributed an execution segment
	oneShots   int64   // of those, priced from the prediction (Done=false)
	predBasisJ float64 // energy of the one-shot decisions

	// Budget-burn windows over the same recent decisions: joules and
	// seconds, fast and slow. Empty without a budget.
	fastJ, fastSec, slowJ, slowSec stats.Window
}

// burn is a window's average power draw over the budget; 0 until
// energyMinSamples decisions have landed.
func burn(j, sec *stats.Window, budgetW float64) float64 {
	if j.Len() < energyMinSamples || sec.Sum() <= 0 {
		return 0
	}
	return j.Sum() / sec.Sum() / budgetW
}

// EnergyMeter accumulates per-decision energy live, keyed by
// (workload, device). It implements obs.Sink so dvfsd attaches it to
// the tracer; fleet ingest feeds it the same way.
type EnergyMeter struct {
	mu      sync.Mutex
	cfg     EnergyConfig
	def     *platform.PowerTable // cfg.Platform's tables; nil without one
	streams map[streamKey]*energyStream
	skipped uint64
}

// NewEnergyMeter builds a meter.
func NewEnergyMeter(cfg EnergyConfig) *EnergyMeter {
	m := &EnergyMeter{cfg: cfg, streams: map[streamKey]*energyStream{}}
	if cfg.Platform != nil {
		m.def = platform.NewPowerTable(cfg.Platform)
	}
	return m
}

// Emit implements obs.Sink: price one decision event. The fast path —
// known stream, known platform — is allocation-free; new streams and
// platforms allocate once on first sight.
//
//dvfs:hotpath
func (m *EnergyMeter) Emit(e *obs.DecisionEvent) {
	m.mu.Lock()
	st := m.streams[streamKey{e.Workload, e.Device}]
	if st == nil {
		//dvfs:allow-alloc first event of a stream: builds the accumulator and (at most once per platform per process) the power tables
		st = m.newStream(e.Workload, e.Device, e.Platform)
	}
	if st.led == nil {
		// Unknown platform: counting beats guessing at a power curve.
		m.skipped++
		m.mu.Unlock()
		return
	}
	t0 := st.led.Now()
	idleJ, runJ, execSec := obs.ChargeEvent(st.led, e)
	if execSec > 0 {
		st.jobs++
		if !e.Done {
			// One-shot serve decision: the job runs client-side, so the
			// prediction was priced — flagged separately in predBasisJ.
			st.oneShots++
			st.predBasisJ += runJ
		}
	}
	joules := idleJ + runJ
	if dt := st.led.Now() - t0; m.cfg.BudgetW > 0 && dt > 0 {
		st.fastJ.Push(joules)
		st.fastSec.Push(dt)
		st.slowJ.Push(joules)
		st.slowSec.Push(dt)
	}
	m.mu.Unlock()
}

// newStream resolves the event's platform — cfg.Platform for events
// naming none or naming it by model name, else platform.ByName — and
// registers the stream, folding into the overflow stream past
// energyMaxKeys. Caller holds m.mu.
func (m *EnergyMeter) newStream(workload, device, platName string) *energyStream {
	pt := m.def
	if platName != "" && (m.cfg.Platform == nil || platName != m.cfg.Platform.Name) {
		pt = platform.PowerTableByName(platName)
	}
	key := streamKey{workload, device}
	if len(m.streams) >= energyMaxKeys {
		key = streamKey{obs.OverflowKey, obs.OverflowKey}
		if st := m.streams[key]; st != nil {
			return st
		}
	}
	st := &energyStream{}
	if pt != nil {
		led := platform.NewLedger(pt)
		st.led = &led
		if m.cfg.BudgetW > 0 {
			st.fastJ = stats.NewWindow(obs.FastBurnWindow)
			st.fastSec = stats.NewWindow(obs.FastBurnWindow)
			st.slowJ = stats.NewWindow(obs.SlowBurnWindow)
			st.slowSec = stats.NewWindow(obs.SlowBurnWindow)
		}
	}
	m.streams[key] = st
	return st
}

// Close implements obs.Sink.
func (m *EnergyMeter) Close() error { return nil }

// EnergyStreamStats is one stream's totals for export.
type EnergyStreamStats struct {
	Workload, Device string
	Jobs, OneShots   int64

	platform.Breakdown // Total() is the stream's energy
	// PredictedBasisJ is the energy of one-shot decisions (Done=false),
	// whose execution is priced from the prediction.
	PredictedBasisJ float64

	PerJobJ        float64 // Total() / Jobs
	PredictorShare float64 // PredictorJ / Total()

	// FastBurn and SlowBurn are windowed watts divided by BudgetW;
	// zero until 16 decisions have landed or when no budget is
	// configured.
	FastBurn, SlowBurn float64
	DurationSec        float64
}

// Snapshot returns every stream's stats, sorted by workload then
// device.
func (m *EnergyMeter) Snapshot() []EnergyStreamStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]EnergyStreamStats, 0, len(m.streams))
	for key, st := range m.streams {
		s := EnergyStreamStats{
			Workload: key.workload, Device: key.device,
			Jobs: st.jobs, OneShots: st.oneShots,
			PredictedBasisJ: st.predBasisJ,
		}
		if st.led != nil {
			s.Breakdown = st.led.Breakdown()
			s.DurationSec = st.led.Now()
		}
		if st.jobs > 0 {
			s.PerJobJ = s.Total() / float64(st.jobs)
		}
		if s.Total() > 0 {
			s.PredictorShare = s.PredictorJ / s.Total()
		}
		if m.cfg.BudgetW > 0 {
			s.FastBurn = burn(&st.fastJ, &st.fastSec, m.cfg.BudgetW)
			s.SlowBurn = burn(&st.slowJ, &st.slowSec, m.cfg.BudgetW)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Device < out[j].Device
	})
	return out
}

// TotalJ returns the meter-wide total.
func (m *EnergyMeter) TotalJ() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := 0.0
	for _, st := range m.streams {
		if st.led != nil {
			t += st.led.Breakdown().Total()
		}
	}
	return t
}

// Skipped returns how many events were dropped for lack of a usable
// platform power model.
func (m *EnergyMeter) Skipped() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.skipped
}

// BudgetW returns the configured budget (0 = burn tracking off).
func (m *EnergyMeter) BudgetW() float64 { return m.cfg.BudgetW }
