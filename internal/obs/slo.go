package obs

import (
	"sort"
	"sync"

	"repro/internal/stats"
)

// Burn-rate windows, in completed jobs for the SLO tracker and in
// decisions for the energy meter. Counted in jobs rather than wall
// time because the interactive workloads here are periodic job streams
// and a job count is deterministic under simulation.
const (
	FastBurnWindow = 128
	SlowBurnWindow = 2048
)

// SLOConfig parameterizes the deadline-miss SLO tracker.
type SLOConfig struct {
	// Target is the acceptable deadline-miss fraction; zero → 0.01.
	// (A negative value is clamped to 0.01; an SLO of "zero misses
	// ever" would make any single miss an infinite burn, so express
	// strict SLOs as a small positive target instead.)
	Target float64
	// MaxKeys bounds the number of distinct keys the tracker will
	// allocate windows for; zero → unbounded (the original
	// per-workload behaviour, where cardinality is small and known).
	// Fleet mode derives keys from untrusted traces, so it sets a
	// bound: once reached, observations for new keys fold into the
	// catch-all OverflowKey so totals stay accurate while memory stays
	// fixed.
	MaxKeys int
}

// SLOTracker measures per-workload deadline-miss burn rates (observed
// miss rate ÷ Target) over a fast and a slow sliding window. The fast
// window shows a sharp regression (a bad model push) within about a
// hundred jobs; the slow window shows whether the error budget is
// really draining. It only measures: the alert engine's slo_burn rule
// decides when a burn rate is an incident.
type SLOTracker struct {
	cfg SLOConfig

	mu  sync.Mutex
	per map[string]*sloState
}

type sloState struct {
	fast, slow stats.Window // 1 per missed job, 0 per met deadline
	total      int64
	misses     int64
}

// NewSLOTracker returns a tracker with the given configuration.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	if cfg.Target <= 0 {
		cfg.Target = 0.01
	}
	return &SLOTracker{cfg: cfg, per: map[string]*sloState{}}
}

// Target returns the configured miss-rate objective.
func (t *SLOTracker) Target() float64 { return t.cfg.Target }

// OverflowKey is the catch-all key that absorbs observations beyond a
// key bound: the SLO tracker's MaxKeys and the energy meter's stream
// bound.
const OverflowKey = "_overflow"

// FleetKey is the key under which ObserveEvent tracks the whole
// fleet's aggregate burn rate.
const FleetKey = "fleet"

// ObserveEvent feeds a completed decision event under fleet keys: the
// aggregate FleetKey plus "platform:<name>" and "workload:<name>"
// breakdowns when the event carries them. This is the keyed/fleet mode
// used by the /v1/fleet/ingest endpoint and the fleet replay engine —
// the same multi-window burn-rate machinery, keyed by trace dimensions
// instead of the serving tier's model name. Events that have not
// completed carry no deadline outcome and are ignored.
func (t *SLOTracker) ObserveEvent(e *DecisionEvent) {
	if e == nil || !e.Done {
		return
	}
	t.Observe(FleetKey, e.Missed)
	if e.Platform != "" {
		t.Observe("platform:"+e.Platform, e.Missed)
	}
	if e.Workload != "" {
		t.Observe("workload:"+e.Workload, e.Missed)
	}
}

// Observe feeds one completed job's deadline outcome for a workload.
func (t *SLOTracker) Observe(workload string, missed bool) {
	v := 0.0
	if missed {
		v = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.per[workload]
	if st == nil {
		if t.cfg.MaxKeys > 0 && len(t.per) >= t.cfg.MaxKeys {
			// At the key bound: fold into the catch-all window instead
			// of allocating a new one (creating the catch-all itself may
			// exceed the bound by one — the bound is about untrusted
			// cardinality, not an exact count).
			workload = OverflowKey
			st = t.per[workload]
		}
		if st == nil {
			st = &sloState{
				fast: stats.NewWindow(FastBurnWindow),
				slow: stats.NewWindow(SlowBurnWindow),
			}
			t.per[workload] = st
		}
	}
	st.fast.Push(v)
	st.slow.Push(v)
	st.total++
	if missed {
		st.misses++
	}
}

// SLOStatus is one workload's current SLO state, as served by dvfsd's
// GET /debug/slo.
type SLOStatus struct {
	Workload string  `json:"workload"`
	Target   float64 `json:"target"`
	Jobs     int64   `json:"jobs"`
	Misses   int64   `json:"misses"`
	MissRate float64 `json:"miss_rate"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
}

// Status returns the workload's current state; ok is false when the
// workload has never been observed.
func (t *SLOTracker) Status(workload string) (SLOStatus, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.per[workload]
	if st == nil {
		return SLOStatus{}, false
	}
	return t.statusLocked(workload, st), true
}

func (t *SLOTracker) statusLocked(workload string, st *sloState) SLOStatus {
	s := SLOStatus{
		Workload: workload,
		Target:   t.cfg.Target,
		Jobs:     st.total,
		Misses:   st.misses,
		FastBurn: st.fast.Mean() / t.cfg.Target,
		SlowBurn: st.slow.Mean() / t.cfg.Target,
	}
	if st.total > 0 {
		s.MissRate = float64(st.misses) / float64(st.total)
	}
	return s
}

// Snapshot returns every observed workload's status, sorted by name.
func (t *SLOTracker) Snapshot() []SLOStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.per))
	for name := range t.per {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SLOStatus, 0, len(names))
	for _, name := range names {
		out = append(out, t.statusLocked(name, t.per[name]))
	}
	return out
}
