package experiments

import (
	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PlacementModes lists the §4.3 predictor scheduling options in
// presentation order.
var PlacementModes = []string{"sequential", "pipelined", "parallel"}

func placementOf(name string) sim.Placement {
	switch name {
	case "pipelined":
		return sim.Pipelined
	case "parallel":
		return sim.Parallel
	}
	return sim.Sequential
}

// PlacementRow compares the prediction controller under the three
// predictor placements of §4.3 at a tight budget (1.0× the maximum
// job time), where predictor and switch overheads actually bite.
// Energy is normalized to the performance governor at the same budget.
type PlacementRow struct {
	Benchmark  string
	KnownAhead bool
	EnergyPct  map[string]float64
	MissPct    map[string]float64
}

func (s *Suite) runPlacement() ([]PlacementRow, error) {
	var rows []PlacementRow
	for _, w := range workload.All() {
		maxT, err := s.maxJobTimeAtFmax(w)
		if err != nil {
			return nil, err
		}
		budget := maxT // normalized budget 1.0: the tight regime
		perf, err := s.runOne("performance", w, sim.Config{BudgetSec: budget})
		if err != nil {
			return nil, err
		}
		row := PlacementRow{
			Benchmark:  w.Name,
			KnownAhead: w.InputsKnownAhead,
			EnergyPct:  map[string]float64{},
			MissPct:    map[string]float64{},
		}
		for _, mode := range PlacementModes {
			r, err := s.runOne("prediction", w, sim.Config{
				BudgetSec: budget,
				Placement: placementOf(mode),
			})
			if err != nil {
				return nil, err
			}
			row.EnergyPct[mode] = 100 * r.EnergyJ / perf.EnergyJ
			row.MissPct[mode] = 100 * r.MissRate()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// BatchPoint is one batch size of the §7 amortization study on a
// millisecond-budget workload.
type BatchPoint struct {
	K         int
	EnergyPct float64
	MissPct   float64
}

func (s *Suite) runBatch() ([]BatchPoint, error) {
	w, err := workload.ByName("2048")
	if err != nil {
		return nil, err
	}
	maxT, err := s.maxJobTimeAtFmax(w)
	if err != nil {
		return nil, err
	}
	budget := maxT
	perf, err := s.runOne("performance", w, sim.Config{BudgetSec: budget})
	if err != nil {
		return nil, err
	}
	ctrl, err := s.Controller(w)
	if err != nil {
		return nil, err
	}
	var pts []BatchPoint
	for _, k := range []int{1, 2, 4, 8, 16} {
		g := &governor.Batched{Inner: ctrl, K: k}
		r, err := sim.Run(w, g, sim.Config{Plat: s.Plat, Seed: s.Seed + 7, BudgetSec: budget})
		if err != nil {
			return nil, err
		}
		pts = append(pts, BatchPoint{
			K:         k,
			EnergyPct: 100 * r.EnergyJ / perf.EnergyJ,
			MissPct:   100 * r.MissRate(),
		})
	}
	return pts, nil
}
