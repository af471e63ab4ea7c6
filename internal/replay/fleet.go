// Fleet-wide counterfactual replay: the same per-job energy
// reconstruction and margin what-ifs as Run, executed per device over
// a fleet trace and aggregated into population distributions. This is
// the question the single-device engine cannot answer: "what does a
// 5% margin cut cost in deadline misses across the fleet?" — the
// answer is a distribution over devices (some devices have headroom,
// some are already missing), not a single delta.
package replay

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/stats"
)

// FleetOptions configures a fleet replay.
type FleetOptions struct {
	// Plat is the fallback platform for events that do not carry a
	// Platform field (single-platform fleets, older traces). Events
	// that name their platform resolve it per device.
	Plat *platform.Platform
	// Seed, Rho, TracedAlpha: as in Options.
	Seed        int64
	Rho         float64
	TracedAlpha float64
	// Margins is the fleet-wide margin sweep; nil → Options' default.
	Margins []float64
	// Workers bounds per-device replay concurrency; zero selects
	// runtime.GOMAXPROCS. The result is byte-identical across worker
	// counts: devices replay in parallel but commit in sorted-ID order
	// (the fleet engine's reorder-buffer pattern), so every float sum
	// and every report byte is fixed by the trace alone.
	Workers int
	// SLO, when non-nil, receives every completed replayed event
	// (obs.SLOTracker.ObserveEvent keying: fleet / platform:* /
	// workload:*), fed in sorted-device order from the commit stage —
	// fleet-level burn tracking over replayed traces.
	SLO *obs.SLOTracker
}

// FleetDeviceResult is one device's replay, reduced to what the fleet
// aggregation needs.
type FleetDeviceResult struct {
	ID        string `json:"id"`
	Platform  string `json:"platform"`
	Workload  string `json:"workload"`
	Jobs      int    `json:"jobs"`
	Predicted int    `json:"predicted"`
	// TracedEnergyJ and TracedMisses reconstruct what the device
	// actually spent — identical to a single-device replay.Run over
	// the same events (the fleet engine calls it).
	TracedEnergyJ float64 `json:"traced_energy_j"`
	TracedMisses  int     `json:"traced_misses"`
	// MarginEnergyJ and MarginMisses align index-for-index with
	// FleetReplayResult.Margins. Devices without predictions replay
	// unchanged at every margin (margins only move predicted jobs).
	MarginEnergyJ []float64 `json:"margin_energy_j"`
	MarginMisses  []int     `json:"margin_misses"`
}

// FleetMarginPoint is one margin setting's fleet-level outcome.
type FleetMarginPoint struct {
	Margin float64 `json:"margin"`
	// EnergyJ and Misses are fleet totals at this margin; MissRate is
	// over all replayed jobs.
	EnergyJ  float64 `json:"energy_j"`
	Misses   int     `json:"misses"`
	MissRate float64 `json:"miss_rate"`
	// DeltaEnergyPct* are quantiles of the per-device energy change vs
	// that device's traced reconstruction, in percent (negative =
	// cheaper than traced).
	DeltaEnergyPctP50 float64 `json:"delta_energy_pct_p50"`
	DeltaEnergyPctP95 float64 `json:"delta_energy_pct_p95"`
	DeltaEnergyPctP99 float64 `json:"delta_energy_pct_p99"`
	// DeltaMissPts is the fleet miss-rate change vs traced, in
	// percentage points.
	DeltaMissPts float64 `json:"delta_miss_pts"`
}

// FleetPlatformResult breaks the traced reconstruction and the margin
// sweep down by platform.
type FleetPlatformResult struct {
	Platform      string  `json:"platform"`
	Devices       int     `json:"devices"`
	Jobs          int     `json:"jobs"`
	TracedEnergyJ float64 `json:"traced_energy_j"`
	TracedMisses  int     `json:"traced_misses"`
	// MarginEnergyJ/MarginMisses align with the fleet Margins.
	MarginEnergyJ []float64 `json:"margin_energy_j"`
	MarginMisses  []int     `json:"margin_misses"`
}

// FleetReplayResult is a fleet-wide counterfactual analysis.
type FleetReplayResult struct {
	Devices int `json:"devices"`
	Events  int `json:"events"`
	Skipped int `json:"skipped"`
	Jobs    int `json:"jobs"`
	// TracedEnergyJ/TracedMisses/TracedMissRate total the per-device
	// reconstructions.
	TracedEnergyJ  float64 `json:"traced_energy_j"`
	TracedMisses   int     `json:"traced_misses"`
	TracedMissRate float64 `json:"traced_miss_rate"`
	// Margins is the sweep, ascending by margin.
	Margins []FleetMarginPoint `json:"margins"`
	// ByPlatform is sorted by platform name.
	ByPlatform []FleetPlatformResult `json:"by_platform"`
	// PerDevice is sorted by device ID.
	PerDevice []FleetDeviceResult `json:"per_device"`
	// SLO is the fleet burn-rate snapshot over the replayed trace
	// (fleet / platform:* / workload:* keys), present when
	// FleetOptions.SLO was set. SLOTarget is that tracker's objective.
	SLO       []obs.SLOStatus `json:"slo,omitempty"`
	SLOTarget float64         `json:"slo_target,omitempty"`
}

// Margin returns the sweep point for the given margin (nil if absent).
func (r *FleetReplayResult) Margin(m float64) *FleetMarginPoint {
	for i := range r.Margins {
		if r.Margins[i].Margin == m {
			return &r.Margins[i]
		}
	}
	return nil
}

// RunFleet replays a fleet trace device by device and aggregates the
// margin sweep into fleet distributions. Events are partitioned by
// their Device field; devices are processed in sorted-ID order, so the
// result is deterministic regardless of trace interleaving. An event
// with no Device is an error — single-device traces belong to Run.
func RunFleet(events []obs.DecisionEvent, opts FleetOptions) (*FleetReplayResult, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("replay: empty fleet trace")
	}
	margins := opts.Margins
	if margins == nil {
		margins = Options{}.withDefaults().Margins
	}

	// Partition by device in two passes, count then place, into one
	// backing array: this stage runs before the pool starts, so it is
	// serial time at any worker count.
	counts := map[string]int{}
	var ids []string
	for i := range events {
		e := &events[i]
		if e.Device == "" {
			return nil, fmt.Errorf("replay: event seq %d has no device ID; not a fleet trace (replay it single-device instead)", e.Seq)
		}
		if _, ok := counts[e.Device]; !ok {
			ids = append(ids, e.Device)
		}
		counts[e.Device]++
	}
	sort.Strings(ids)
	byDevice := make(map[string][]obs.DecisionEvent, len(ids))
	backing := make([]obs.DecisionEvent, len(events))
	off := 0
	for _, id := range ids {
		n := counts[id]
		byDevice[id] = backing[off : off : off+n]
		off += n
	}
	for i := range events {
		d := events[i].Device
		byDevice[d] = append(byDevice[d], events[i])
	}

	plats := map[string]*platform.Platform{}
	resolve := func(name string) (*platform.Platform, error) {
		if name == "" {
			if opts.Plat == nil {
				return nil, fmt.Errorf("replay: trace events carry no platform and no fallback was given")
			}
			return opts.Plat, nil
		}
		if p, ok := plats[name]; ok {
			return p, nil
		}
		p, err := platform.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		plats[name] = p
		return p, nil
	}
	// Resolve every device's platform serially before the pool starts:
	// the memo map stays single-threaded, and resolution errors surface
	// at the same device regardless of worker count.
	devPlats := make([]*platform.Platform, len(ids))
	for i, id := range ids {
		p, err := resolve(byDevice[id][0].Platform)
		if err != nil {
			return nil, fmt.Errorf("replay: device %s: %w", id, err)
		}
		devPlats[i] = p
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ids) {
		workers = len(ids)
	}

	// Worker pool + in-order commit (the internal/fleet pattern):
	// workers replay devices out of order; the commit stage below
	// reassembles sorted-ID order before any float is summed or any
	// delta appended, so the result — and every derived report byte —
	// is identical across worker counts.
	type indexed struct {
		i   int
		r   *Result
		err error
	}
	jobs := make(chan int)
	outs := make(chan indexed, workers*2)
	var abort sync.Once
	aborted := make(chan struct{})
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r, err := Run(byDevice[ids[i]], Options{
					Plat:        devPlats[i],
					Seed:        opts.Seed,
					Rho:         opts.Rho,
					Margins:     margins,
					Alphas:      []float64{}, // fleet sweeps margins only
					TracedAlpha: opts.TracedAlpha,
				})
				if err != nil {
					err = fmt.Errorf("replay: device %s: %w", ids[i], err)
					abort.Do(func() { close(aborted) })
				}
				outs <- indexed{i, r, err}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := range ids {
			select {
			case jobs <- i:
			case <-aborted:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outs)
	}()

	out := &FleetReplayResult{Devices: len(ids), Events: len(events)}
	byPlat := map[string]*FleetPlatformResult{}
	// deltas[mi] collects each device's energy delta (percent vs its
	// own traced reconstruction) at margin mi, appended in device order
	// by the commit stage.
	deltas := make([][]float64, len(margins))

	commit := func(i int, r *Result) {
		id := ids[i]
		devEvents := byDevice[id]
		plat := devPlats[i]
		d := FleetDeviceResult{
			ID:            id,
			Platform:      devEvents[0].Platform,
			MarginEnergyJ: make([]float64, len(margins)),
			MarginMisses:  make([]int, len(margins)),
		}
		if d.Platform == "" {
			d.Platform = plat.Name
		}
		for gi := range r.Groups {
			g := &r.Groups[gi]
			if d.Workload == "" {
				d.Workload = g.Workload
			}
			d.Jobs += g.Jobs
			d.Predicted += g.Predicted
			d.TracedEnergyJ += g.Traced.EnergyJ
			d.TracedMisses += g.Traced.Misses
			for mi := range margins {
				if len(g.MarginSweep) == len(margins) {
					d.MarginEnergyJ[mi] += g.MarginSweep[mi].EnergyJ
					d.MarginMisses[mi] += g.MarginSweep[mi].Misses
				} else {
					// No predictions in this group: the margin knob does
					// not exist for it; it replays unchanged.
					d.MarginEnergyJ[mi] += g.Traced.EnergyJ
					d.MarginMisses[mi] += g.Traced.Misses
				}
			}
		}
		out.Skipped += r.Skipped
		out.Jobs += d.Jobs
		out.TracedEnergyJ += d.TracedEnergyJ
		out.TracedMisses += d.TracedMisses

		pp, ok := byPlat[d.Platform]
		if !ok {
			pp = &FleetPlatformResult{
				Platform:      d.Platform,
				MarginEnergyJ: make([]float64, len(margins)),
				MarginMisses:  make([]int, len(margins)),
			}
			byPlat[d.Platform] = pp
		}
		pp.Devices++
		pp.Jobs += d.Jobs
		pp.TracedEnergyJ += d.TracedEnergyJ
		pp.TracedMisses += d.TracedMisses
		for mi := range margins {
			pp.MarginEnergyJ[mi] += d.MarginEnergyJ[mi]
			pp.MarginMisses[mi] += d.MarginMisses[mi]
			if d.TracedEnergyJ > 0 {
				deltas[mi] = append(deltas[mi],
					100*(d.MarginEnergyJ[mi]-d.TracedEnergyJ)/d.TracedEnergyJ)
			}
		}
		out.PerDevice = append(out.PerDevice, d)
		if opts.SLO != nil {
			for ei := range devEvents {
				opts.SLO.ObserveEvent(&devEvents[ei])
			}
		}
	}

	// Commit stage: drain workers, reassemble device-index order. On
	// error, keep the error from the smallest device index (the one a
	// serial run would have hit first) so failures are deterministic
	// too.
	reorder := make(map[int]*Result, workers*2)
	next := 0
	var firstErr error
	firstErrIdx := len(ids)
	for o := range outs {
		if o.err != nil {
			if o.i < firstErrIdx {
				firstErr, firstErrIdx = o.err, o.i
			}
			abort.Do(func() { close(aborted) })
			continue
		}
		reorder[o.i] = o.r
		for {
			r, ok := reorder[next]
			if !ok {
				break
			}
			delete(reorder, next)
			if firstErr == nil {
				commit(next, r)
			}
			next++
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if next != len(ids) {
		return nil, fmt.Errorf("replay: committed %d of %d devices", next, len(ids))
	}

	if out.Jobs > 0 {
		out.TracedMissRate = float64(out.TracedMisses) / float64(out.Jobs)
	}
	for mi, m := range margins {
		pt := FleetMarginPoint{Margin: m}
		for i := range out.PerDevice {
			pt.EnergyJ += out.PerDevice[i].MarginEnergyJ[mi]
			pt.Misses += out.PerDevice[i].MarginMisses[mi]
		}
		if out.Jobs > 0 {
			pt.MissRate = float64(pt.Misses) / float64(out.Jobs)
		}
		pt.DeltaMissPts = 100 * (pt.MissRate - out.TracedMissRate)
		sort.Float64s(deltas[mi])
		pt.DeltaEnergyPctP50 = stats.QuantileSorted(deltas[mi], 0.50)
		pt.DeltaEnergyPctP95 = stats.QuantileSorted(deltas[mi], 0.95)
		pt.DeltaEnergyPctP99 = stats.QuantileSorted(deltas[mi], 0.99)
		out.Margins = append(out.Margins, pt)
	}
	for _, pp := range byPlat {
		out.ByPlatform = append(out.ByPlatform, *pp)
	}
	sort.Slice(out.ByPlatform, func(i, j int) bool {
		return out.ByPlatform[i].Platform < out.ByPlatform[j].Platform
	})
	if opts.SLO != nil {
		out.SLO = opts.SLO.Snapshot()
		out.SLOTarget = opts.SLO.Target()
	}
	return out, nil
}
