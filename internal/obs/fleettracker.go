package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/platform"
)

// FleetConfig parameterizes a FleetTracker.
type FleetConfig struct {
	// TopK is how many worst devices Snapshot surfaces; zero → 10.
	TopK int
}

// Fleet health scoring constants (DESIGN.md §5j).
const (
	fleetShards   = 32   // lock shards; snapshots merge them in fixed order
	missTarget    = 0.01 // per-device miss budget the score normalizes against
	driftBudget   = 0.25 // |residual|/predicted treated as a full drift signal
	fleetAlpha    = 0.05 // EWMA step of the miss and drift estimators (≈20 jobs)
	minJobs       = 8    // completed jobs before a device is classified
	degradedScore = 0.25 // health-score threshold of the degraded class
	outlierScore  = 0.5  // health-score threshold of the outlier class
	historyEvery  = 512  // completed jobs per fleet history point
	historyCap    = 256  // fleet history ring size
)

// Device health classes.
const (
	ClassFresh    = "fresh"    // under minJobs — not yet classified
	ClassHealthy  = "healthy"  // score < degradedScore
	ClassDegraded = "degraded" // degradedScore ≤ score < outlierScore
	ClassOutlier  = "outlier"  // score ≥ outlierScore
)

// DeviceHealth is one device's scored state at snapshot time.
type DeviceHealth struct {
	Device   string `json:"device"`
	Platform string `json:"platform,omitempty"`
	Workload string `json:"workload,omitempty"`
	Events   int64  `json:"events"`
	Jobs     int64  `json:"jobs"`
	Misses   int64  `json:"misses"`
	// MissRate is lifetime misses/jobs; MissEWMA the recent estimate
	// the score uses.
	MissRate float64 `json:"miss_rate"`
	MissEWMA float64 `json:"miss_ewma"`
	// ResidEWMA tracks the signed residual fraction (positive =
	// under-prediction); DriftEWMA its magnitude.
	ResidEWMA float64 `json:"resid_ewma"`
	DriftEWMA float64 `json:"drift_ewma"`
	// EnergyJ is every segment the device's events charged to its
	// platform ledger (obs.ChargeEvent); zero when the platform does
	// not resolve. EnergyPerJob is EnergyJ over completed jobs.
	EnergyJ      float64 `json:"energy_j"`
	EnergyPerJob float64 `json:"energy_per_job"`
	// Score ∈ [0,1): weighted saturating blend of miss, drift, and
	// energy excess (see DESIGN.md §5j). Attribution names the
	// dominant component: "miss", "drift", or "energy".
	Score       float64 `json:"score"`
	Class       string  `json:"class"`
	Attribution string  `json:"attribution"`
}

// FleetPoint is one history sample backing the dashboard's
// quantile-band sparklines.
type FleetPoint struct {
	Completed uint64  `json:"completed"`
	MissRate  float64 `json:"miss_rate"`
	ResidP50  float64 `json:"resid_p50"`
	ResidP95  float64 `json:"resid_p95"`
	ResidP99  float64 `json:"resid_p99"`
}

// SketchQuantiles is the standard dashboard quantile set read off a
// merged sketch.
type SketchQuantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// sketchQuantiles reads the standard set; empty sketches read as zero
// (NaN would poison JSON encoding downstream).
func sketchQuantiles(s *QuantileSketch) SketchQuantiles {
	return SketchQuantiles{
		P50: nanToZero(s.Quantile(0.50)),
		P90: nanToZero(s.Quantile(0.90)),
		P95: nanToZero(s.Quantile(0.95)),
		P99: nanToZero(s.Quantile(0.99)),
	}
}

// FleetStatus is a point-in-time fleet summary, as served by dvfsd's
// GET /debug/fleet and printed by dvfstrace -by-device.
type FleetStatus struct {
	Devices   int    `json:"devices"`
	Events    uint64 `json:"events"`
	Completed uint64 `json:"completed"`
	Misses    uint64 `json:"misses"`
	// Unpriced counts events of devices whose platform does not
	// resolve (platform.ByName): counted rather than guessed at.
	Unpriced uint64 `json:"unpriced,omitempty"`
	// MissRate is the fleet-wide misses/completed.
	MissRate float64 `json:"miss_rate"`
	// Healthy/Degraded/Outliers/Fresh count devices per class.
	Healthy  int `json:"healthy"`
	Degraded int `json:"degraded"`
	Outliers int `json:"outliers"`
	Fresh    int `json:"fresh"`
	// ResidualFrac is the distribution of |residual|/predicted across
	// completed predicted jobs (stream-level, sketch-backed).
	ResidualFrac SketchQuantiles `json:"residual_frac"`
	// DeviceMissEWMA and DeviceEnergyPerJob are distributions *across
	// devices* at snapshot time.
	DeviceMissEWMA     SketchQuantiles `json:"device_miss_ewma"`
	DeviceEnergyPerJob SketchQuantiles `json:"device_energy_per_job"`
	// Worst is the top-K devices by health score with attribution.
	Worst []DeviceHealth `json:"worst,omitempty"`
	// TopMiss is the heavy-hitter view of miss counts by device.
	TopMiss []HeavyHit `json:"top_miss,omitempty"`
	// History backs the dashboard sparklines and quantile bands.
	History []FleetPoint `json:"history,omitempty"`
}

type deviceState struct {
	device    string
	platform  string
	workload  string
	events    int64
	jobs      int64
	misses    int64
	missEWMA  float64
	residEWMA float64
	driftEWMA float64
	led       *platform.Ledger // nil for an unknown platform
}

type fleetShard struct {
	mu     sync.Mutex
	dev    map[string]*deviceState
	resid  *QuantileSketch
	missHH *HeavyHitters
}

// FleetTracker is a sink that consumes device-labeled DecisionEvents
// and maintains per-device health: miss-rate and residual-drift EWMAs,
// energy on one platform.Ledger per device, and stream-level sketches.
// State is sharded by device hash so 32 concurrent writers (the fleet
// worker pool, or parallel ingest requests) contend only per shard;
// Snapshot merges shard sketches in fixed shard order, so a
// deterministic feed yields deterministic snapshots.
type FleetTracker struct {
	topK   int
	shards []*fleetShard

	events    atomic.Uint64
	completed atomic.Uint64
	misses    atomic.Uint64
	unpriced  atomic.Uint64

	histMu   sync.Mutex
	history  []FleetPoint
	histNext uint64 // completed-count threshold for the next point
}

// NewFleetTracker returns a tracker with the given configuration.
func NewFleetTracker(cfg FleetConfig) *FleetTracker {
	t := &FleetTracker{
		topK:     cfg.TopK,
		shards:   make([]*fleetShard, fleetShards),
		histNext: historyEvery,
	}
	if t.topK <= 0 {
		t.topK = 10
	}
	for i := range t.shards {
		t.shards[i] = &fleetShard{
			dev:    map[string]*deviceState{},
			resid:  NewQuantileSketch(0),
			missHH: NewHeavyHitters(defaultHHCapacity),
		}
	}
	return t
}

// deviceKey labels events with no Device field so single-device traces
// still aggregate somewhere visible.
const deviceKey = "-"

// Emit consumes one decision event. Safe for concurrent use.
func (t *FleetTracker) Emit(e *DecisionEvent) {
	dev := e.Device
	if dev == "" {
		dev = deviceKey
	}
	t.events.Add(1)
	sh := t.shards[strHash(dev)%uint64(len(t.shards))]

	sh.mu.Lock()
	st := sh.dev[dev]
	if st == nil {
		st = &deviceState{device: dev}
		if pt := platform.PowerTableByName(e.Platform); pt != nil {
			led := platform.NewLedger(pt)
			st.led = &led
		}
		sh.dev[dev] = st
	}
	if st.platform == "" {
		st.platform = e.Platform
	}
	if st.workload == "" {
		st.workload = e.Workload
	}
	st.events++
	if st.led != nil {
		ChargeEvent(st.led, e)
	} else {
		t.unpriced.Add(1)
	}
	if e.Done {
		st.jobs++
		miss := 0.0
		if e.Missed {
			miss = 1
			st.misses++
			sh.missHH.Add(dev, 1)
		}
		st.missEWMA += fleetAlpha * (miss - st.missEWMA)
		if e.Predicted && e.PredictedExecSec > 0 {
			rf := e.ResidualSec / e.PredictedExecSec
			sh.resid.Add(math.Abs(rf))
			st.residEWMA += fleetAlpha * (rf - st.residEWMA)
			st.driftEWMA += fleetAlpha * (math.Abs(rf) - st.driftEWMA)
		}
	}
	sh.mu.Unlock()

	if !e.Done {
		return
	}
	if e.Missed {
		t.misses.Add(1)
	}
	t.maybeHistory(t.completed.Add(1))
}

// Close implements Sink; the tracker holds nothing to flush.
func (t *FleetTracker) Close() error { return nil }

// maybeHistory appends a fleet history point when the completed count
// crosses the next threshold. The point snapshots the merged residual
// sketch, so it takes every shard lock briefly; historyEvery spaces
// that cost out.
func (t *FleetTracker) maybeHistory(done uint64) {
	t.histMu.Lock()
	if done < t.histNext {
		t.histMu.Unlock()
		return
	}
	t.histNext = done + historyEvery
	resid := t.mergedResiduals()
	pt := FleetPoint{
		Completed: done,
		ResidP50:  nanToZero(resid.Quantile(0.50)),
		ResidP95:  nanToZero(resid.Quantile(0.95)),
		ResidP99:  nanToZero(resid.Quantile(0.99)),
	}
	if c := t.completed.Load(); c > 0 {
		pt.MissRate = float64(t.misses.Load()) / float64(c)
	}
	if len(t.history) == historyCap {
		copy(t.history, t.history[1:])
		t.history[len(t.history)-1] = pt
	} else {
		t.history = append(t.history, pt)
	}
	t.histMu.Unlock()
}

func nanToZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// mergedResiduals merges every shard's residual sketch in shard order
// into a fresh sketch.
func (t *FleetTracker) mergedResiduals() *QuantileSketch {
	out := NewQuantileSketch(0)
	for _, sh := range t.shards {
		sh.mu.Lock()
		out.Merge(sh.resid)
		sh.mu.Unlock()
	}
	return out
}

// DeviceHealths returns every tracked device's scored state, sorted by
// device ID. The energy component normalizes against the fleet median
// energy/job, so it is only computable fleet-wide at read time.
func (t *FleetTracker) DeviceHealths() []DeviceHealth {
	var all []DeviceHealth
	for _, sh := range t.shards {
		sh.mu.Lock()
		for _, st := range sh.dev {
			d := DeviceHealth{
				Device:    st.device,
				Platform:  st.platform,
				Workload:  st.workload,
				Events:    st.events,
				Jobs:      st.jobs,
				Misses:    st.misses,
				MissEWMA:  st.missEWMA,
				ResidEWMA: st.residEWMA,
				DriftEWMA: st.driftEWMA,
			}
			if st.led != nil {
				d.EnergyJ = st.led.Breakdown().Total()
			}
			if st.jobs > 0 {
				d.MissRate = float64(st.misses) / float64(st.jobs)
				d.EnergyPerJob = d.EnergyJ / float64(st.jobs)
			}
			all = append(all, d)
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Device < all[j].Device })

	// Fleet median energy/job over classified devices anchors the
	// energy-excess component.
	var epj []float64
	for _, d := range all {
		if d.Jobs >= minJobs {
			epj = append(epj, d.EnergyPerJob)
		}
	}
	medEPJ := 0.0
	if len(epj) > 0 {
		sortFloats(epj)
		medEPJ = epj[len(epj)/2]
	}
	for i := range all {
		t.score(&all[i], medEPJ)
	}
	return all
}

// sat maps [0,∞) onto [0,1): x/(1+x). A component at exactly its
// budget contributes 0.5 of its weight.
func sat(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x / (1 + x)
}

// score fills Score/Class/Attribution: 0.5·sat(miss/budget) +
// 0.3·sat(drift/budget) + 0.2·sat(energy excess vs fleet median).
func (t *FleetTracker) score(d *DeviceHealth, medEPJ float64) {
	missC := sat(d.MissEWMA / missTarget)
	driftC := sat(d.DriftEWMA / driftBudget)
	energyC := 0.0
	if medEPJ > 0 && d.EnergyPerJob > medEPJ {
		energyC = sat(d.EnergyPerJob/medEPJ - 1)
	}
	wMiss, wDrift, wEnergy := 0.5*missC, 0.3*driftC, 0.2*energyC
	d.Score = wMiss + wDrift + wEnergy
	switch {
	case wMiss >= wDrift && wMiss >= wEnergy:
		d.Attribution = "miss"
	case wDrift >= wEnergy:
		d.Attribution = "drift"
	default:
		d.Attribution = "energy"
	}
	switch {
	case d.Jobs < minJobs:
		d.Class = ClassFresh
	case d.Score >= outlierScore:
		d.Class = ClassOutlier
	case d.Score >= degradedScore:
		d.Class = ClassDegraded
	default:
		d.Class = ClassHealthy
	}
}

// Snapshot computes the fleet summary: per-class counts, merged
// sketch quantiles, the top-K worst devices (score descending, device
// ascending — deterministic), heavy-hitter miss counts, and the
// history ring.
func (t *FleetTracker) Snapshot() FleetStatus {
	s := FleetStatus{
		Events:    t.events.Load(),
		Completed: t.completed.Load(),
		Misses:    t.misses.Load(),
		Unpriced:  t.unpriced.Load(),
	}
	if s.Completed > 0 {
		s.MissRate = float64(s.Misses) / float64(s.Completed)
	}

	all := t.DeviceHealths()
	s.Devices = len(all)
	missSk := NewQuantileSketch(0)
	epjSk := NewQuantileSketch(0)
	for _, d := range all {
		switch d.Class {
		case ClassFresh:
			s.Fresh++
		case ClassHealthy:
			s.Healthy++
		case ClassDegraded:
			s.Degraded++
		case ClassOutlier:
			s.Outliers++
		}
		if d.Jobs >= minJobs {
			missSk.Add(d.MissEWMA)
			epjSk.Add(d.EnergyPerJob)
		}
	}
	s.DeviceMissEWMA = sketchQuantiles(missSk)
	s.DeviceEnergyPerJob = sketchQuantiles(epjSk)
	s.ResidualFrac = sketchQuantiles(t.mergedResiduals())

	classified := all[:0:0]
	for _, d := range all {
		if d.Class != ClassFresh {
			classified = append(classified, d)
		}
	}
	sort.SliceStable(classified, func(i, j int) bool {
		if classified[i].Score != classified[j].Score {
			return classified[i].Score > classified[j].Score
		}
		return classified[i].Device < classified[j].Device
	})
	if len(classified) > t.topK {
		classified = classified[:t.topK]
	}
	s.Worst = classified

	hh := NewHeavyHitters(defaultHHCapacity)
	for _, sh := range t.shards {
		sh.mu.Lock()
		hh.Merge(sh.missHH)
		sh.mu.Unlock()
	}
	s.TopMiss = hh.Top(t.topK)

	t.histMu.Lock()
	s.History = append([]FleetPoint(nil), t.history...)
	t.histMu.Unlock()
	return s
}
