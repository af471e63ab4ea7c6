package experiments

import (
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Ablations beyond the paper's own sweeps, covering the design choices
// DESIGN.md calls out: the 10% prediction margin, the 95th-percentile
// switch-time table (vs means), and Lasso-driven slice reduction
// (vs computing every feature).

// MarginPoint is one setting of the prediction-margin ablation.
type MarginPoint struct {
	Margin    float64
	EnergyPct float64
	MissPct   float64
}

func (s *Suite) runAblationMargin() ([]MarginPoint, error) {
	w := workload.LDecode()
	perf, err := s.runOne("performance", w, sim.Config{})
	if err != nil {
		return nil, err
	}
	var pts []MarginPoint
	for _, m := range []float64{-1, 0.05, 0.10, 0.20, 0.30} { // -1 encodes 0
		margin := m
		if margin < 0 {
			margin = 0
		}
		ctrl, err := core.Build(w, core.Config{
			Plat:        s.Plat,
			ProfileSeed: s.Seed + 17,
			Switch:      s.Switch,
			Margin:      m, // core treats negative as exactly zero
		})
		if err != nil {
			return nil, err
		}
		r, err := sim.Run(w, ctrl, sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		pts = append(pts, MarginPoint{
			Margin:    margin,
			EnergyPct: 100 * r.EnergyJ / perf.EnergyJ,
			MissPct:   100 * r.MissRate(),
		})
	}
	return pts, nil
}

// SwitchTableResult compares conservative (p95) against mean
// switch-time estimates in the frequency selector.
type SwitchTableResult struct {
	Table     string // "p95" or "mean"
	EnergyPct float64
	MissPct   float64
}

func (s *Suite) runAblationSwitchTable() ([]SwitchTableResult, error) {
	w := workload.LDecode()
	perf, err := s.runOne("performance", w, sim.Config{})
	if err != nil {
		return nil, err
	}
	var out []SwitchTableResult
	for _, tbl := range []struct {
		name string
		t    *platform.SwitchTable
	}{
		{"p95", s.Switch},
		{"mean", platform.MeanSwitchTable(s.Plat)},
	} {
		ctrl, err := core.Build(w, core.Config{
			Plat:        s.Plat,
			ProfileSeed: s.Seed + 17,
			Switch:      tbl.t,
		})
		if err != nil {
			return nil, err
		}
		r, err := sim.Run(w, ctrl, sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		out = append(out, SwitchTableResult{
			Table:     tbl.name,
			EnergyPct: 100 * r.EnergyJ / perf.EnergyJ,
			MissPct:   100 * r.MissRate(),
		})
	}
	return out, nil
}

// SliceAblationRow compares the Lasso-reduced slice against computing
// every instrumented feature.
type SliceAblationRow struct {
	Benchmark string
	// Statement counts of the two slices.
	LassoStmts, FullStmts int
	// Average predictor time per job under each slice [ms].
	LassoPredMS, FullPredMS float64
}

func (s *Suite) runAblationSlice() ([]SliceAblationRow, error) {
	var rows []SliceAblationRow
	for _, w := range workload.All() {
		lasso, err := s.Controller(w)
		if err != nil {
			return nil, err
		}
		full, err := core.Build(w, core.Config{
			Plat:            s.Plat,
			ProfileSeed:     s.Seed + 17,
			Switch:          s.Switch,
			KeepAllFeatures: true,
		})
		if err != nil {
			return nil, err
		}
		rl, err := sim.Run(w, lasso, sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		rf, err := sim.Run(w, full, sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		rows = append(rows, SliceAblationRow{
			Benchmark:   w.Name,
			LassoStmts:  lasso.Slice.SliceStmts,
			FullStmts:   full.Slice.SliceStmts,
			LassoPredMS: rl.MeanPredictorSec() * 1e3,
			FullPredMS:  rf.MeanPredictorSec() * 1e3,
		})
	}
	return rows, nil
}
