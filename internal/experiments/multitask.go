package experiments

import (
	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MultiTaskRow compares a two-task system (a 10 fps video decoder plus
// a 20 fps game overlay sharing the core — §4.1's multiple
// non-overlapping tasks) under per-task prediction controllers versus
// the performance governor.
type MultiTaskRow struct {
	Scenario string
	// Shared energy, normalized to the performance run.
	EnergyPct float64
	// Per-task deadline misses [%], in task order (ldecode, xpilot).
	MissPct []float64
}

func (s *Suite) runMultiTask() ([]MultiTaskRow, error) {
	ld := workload.LDecode()
	xp := workload.XPilot()
	mkTasks := func(govLD, govXP governor.Governor) []sim.TaskSpec {
		return []sim.TaskSpec{
			{W: ld, Gov: govLD, BudgetSec: 0.100, PeriodSec: 0.100, Jobs: 200},
			{W: xp, Gov: govXP, BudgetSec: 0.050, PeriodSec: 0.050, OffsetSec: 0.037, Jobs: 400},
		}
	}
	perf, err := sim.RunMulti(
		mkTasks(&governor.Performance{Plat: s.Plat}, &governor.Performance{Plat: s.Plat}),
		sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
	if err != nil {
		return nil, err
	}
	ldCtrl, err := s.Controller(ld)
	if err != nil {
		return nil, err
	}
	xpCtrl, err := s.Controller(xp)
	if err != nil {
		return nil, err
	}
	pred, err := sim.RunMulti(mkTasks(ldCtrl, xpCtrl),
		sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
	if err != nil {
		return nil, err
	}
	// Contention-aware coordination (§7 extension): fresh controllers,
	// wrapped so each reserves wall time for the other's releases.
	ldC, err := core.Build(workload.LDecode(), core.Config{Plat: s.Plat, ProfileSeed: s.Seed + 17, Switch: s.Switch})
	if err != nil {
		return nil, err
	}
	xpC, err := core.Build(workload.XPilot(), core.Config{Plat: s.Plat, ProfileSeed: s.Seed + 17, Switch: s.Switch})
	if err != nil {
		return nil, err
	}
	coordn := governor.NewCoordinator()
	coord, err := sim.RunMulti(mkTasks(
		coordn.Wrap(ldC, 0.100, 0),
		coordn.Wrap(xpC, 0.050, 0.037)),
		sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
	if err != nil {
		return nil, err
	}
	rows := []MultiTaskRow{
		{Scenario: "performance", EnergyPct: 100,
			MissPct: []float64{100 * perf.PerTask[0].MissRate(), 100 * perf.PerTask[1].MissRate()}},
		{Scenario: "prediction", EnergyPct: 100 * pred.EnergyJ / perf.EnergyJ,
			MissPct: []float64{100 * pred.PerTask[0].MissRate(), 100 * pred.PerTask[1].MissRate()}},
		{Scenario: "pred+coord", EnergyPct: 100 * coord.EnergyJ / perf.EnergyJ,
			MissPct: []float64{100 * coord.PerTask[0].MissRate(), 100 * coord.PerTask[1].MissRate()}},
	}
	return rows, nil
}

// BaselineRow is one governor's result in the extended baseline sweep.
type BaselineRow struct {
	Governor  string
	EnergyPct float64
	MissPct   float64
}

// runBaselines runs the extended baseline set, every registered
// governor but the oracle in registry order: the paper's four plus the
// extra kernel policies (powersave, ondemand) and the moving-average
// reactive controller its related work cites (§6.1).
func (s *Suite) runBaselines(name string) ([]BaselineRow, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	var rows []BaselineRow
	var perfEnergy float64
	for _, g := range core.GovernorNames() {
		if g == "oracle" {
			// Not a baseline: the oracle's analysis removes the
			// controller overheads every other row pays.
			continue
		}
		r, err := s.runOne(g, w, sim.Config{})
		if err != nil {
			return nil, err
		}
		if g == "performance" {
			perfEnergy = r.EnergyJ
		}
		rows = append(rows, BaselineRow{
			Governor:  g,
			EnergyPct: 100 * r.EnergyJ / perfEnergy,
			MissPct:   100 * r.MissRate(),
		})
	}
	return rows, nil
}
