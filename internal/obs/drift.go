package obs

import (
	"math"
	"sort"
	"sync"

	"repro/internal/stats"
)

// StaleUnderRate is the windowed under-prediction rate above which a
// model counts as stale. Training with asymmetric penalty α (§3.3)
// makes the fit approximately the α/(1+α)-quantile regressor, so a
// healthy model trained with α = 100 under-predicts about 1/(1+α) of
// jobs; stale is three times that. The built-in model_stale alert rule
// fires above it and resolves below half of it.
const StaleUnderRate = 3.0 / (1 + 100)

const (
	// driftWindow is the number of recent residuals kept per workload.
	driftWindow = 256
	// driftMinResiduals is how many residuals a workload needs before
	// UnderRates reports it: fewer say too little about a model to
	// alert on.
	driftMinResiduals = 50
)

// DriftMonitor maintains online residual statistics per workload: the
// under-prediction rate and residual quantiles over a sliding window.
// Mantis-style prediction systems stay trustworthy only while the
// observed residual distribution still looks like the training
// distribution; this is that measurement. It does not decide
// staleness: the alert engine's model_stale rule does, from the
// exported under-prediction rates.
type DriftMonitor struct {
	mu  sync.Mutex
	per map[string]*driftState
}

type driftState struct {
	resid stats.Window // residuals, seconds
	under int          // under-predictions (residual > 0) in resid
}

// NewDriftMonitor returns an empty monitor.
func NewDriftMonitor() *DriftMonitor {
	return &DriftMonitor{per: map[string]*driftState{}}
}

// Observe feeds one completed prediction's residual (actual −
// predicted, seconds) for a workload.
func (d *DriftMonitor) Observe(workload string, residualSec float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.per[workload]
	if st == nil {
		st = &driftState{resid: stats.NewWindow(driftWindow)}
		d.per[workload] = st
	}
	if st.resid.Push(residualSec) > 0 {
		st.under--
	}
	if residualSec > 0 {
		st.under++
	}
}

// UnderRate returns the sliding-window under-prediction rate (NaN with
// no observations).
func (d *DriftMonitor) UnderRate(workload string) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.per[workload]
	if st == nil || st.resid.Len() == 0 {
		return math.NaN()
	}
	return float64(st.under) / float64(st.resid.Len())
}

// UnderRates returns the sliding-window under-prediction rate of every
// workload whose window holds at least 50 residuals — the values
// exported for the model_stale rule.
func (d *DriftMonitor) UnderRates() map[string]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]float64, len(d.per))
	for name, st := range d.per {
		if n := st.resid.Len(); n >= driftMinResiduals {
			out[name] = float64(st.under) / float64(n)
		}
	}
	return out
}

// Quantile returns the p-quantile of the residuals currently in the
// workload's window (NaN with no observations).
func (d *DriftMonitor) Quantile(workload string, p float64) float64 {
	d.mu.Lock()
	st := d.per[workload]
	var xs []float64
	if st != nil {
		xs = append(xs, st.resid.Values()...)
	}
	d.mu.Unlock()
	sort.Float64s(xs)
	return stats.QuantileSorted(xs, p)
}

// Workloads lists the workloads observed so far, sorted.
func (d *DriftMonitor) Workloads() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.per))
	for name := range d.per {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
