package trace

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/platform"
)

// EnergyEstimator returns a per-event energy estimate suitable for
// obs.FleetConfig.EnergyPerJob: when the event names a resolvable
// platform, it prices the job's measured execution time at the chosen
// level's active power from the platform's PowerTable (the dominant
// term of the replay engine's attribution — predictor, switch, and
// idle-slack terms need the full schedule, which a streamed event does
// not carry); otherwise it reports no estimate and the tracker falls
// back to its own proxy. Power tables are memoized (under a lock — the
// fleet tracker's shards call the estimator concurrently), and failed
// lookups are remembered so a trace full of unknown names does not
// re-resolve per event.
func EnergyEstimator() func(e *obs.DecisionEvent) (float64, bool) {
	var mu sync.Mutex
	tables := map[string]*platform.PowerTable{}
	return func(e *obs.DecisionEvent) (float64, bool) {
		mu.Lock()
		t, ok := tables[e.Platform]
		if !ok {
			if p, err := platform.ByName(e.Platform); err == nil {
				t = platform.NewPowerTable(p)
			}
			tables[e.Platform] = t
		}
		mu.Unlock()
		if t == nil {
			return 0, false
		}
		w, ok := t.Active(e.Level)
		return w * e.ActualExecSec, ok
	}
}
