package replay

import "repro/internal/platform"

const timeEps = 1e-12

// reconstruct rebuilds the energy the traced policy actually spent,
// segment by segment, on a platform.Ledger: the idle gap before each
// job at the from-level, the predictor slice at the from-level, the
// DVFS transition for its measured latency, the execution at the
// chosen level, and a final drain at the last level out to the
// horizon.
//
// For job-triggered governors on the default simulator configuration
// every quantity is recorded in the trace, so the total matches
// sim.Result.EnergyJ to floating-point round-off — the
// cross-validation test asserts within 1%. Where the trace cannot
// carry a segment (inter-job idle-drop switches, mid-job sampling
// transitions) the group's Approx list says so.
func reconstruct(g *group, plat *platform.Platform, power *platform.PowerTable) Outcome {
	led := platform.NewLedger(power)
	levels := map[int]int{}
	misses := 0
	last := plat.MaxLevel().Index
	for _, j := range g.jobs {
		levels[j.level]++
		led.IdleUntil(j.start, j.from)
		sw := j.measSwitchSec
		if sw == 0 && j.level != j.from {
			// Old logs carry only the table estimate; better than
			// pricing the transition at zero.
			sw = j.switchEstSec
		}
		led.Run(j.from, j.level, j.predictorSec, sw, j.actual)
		if j.missed {
			misses++
		}
		last = j.level
	}
	return finishOutcome(g, &led, last, misses, levels)
}

// finishOutcome drains the ledger to the simulator's wall-clock
// horizon — the last release plus one period, charged to every run
// alike — and summarizes it.
func finishOutcome(g *group, led *platform.Ledger, last, misses int, levels map[int]int) Outcome {
	n := len(g.jobs)
	if n > 0 {
		led.IdleUntil(g.jobs[n-1].release+g.period, last)
	}
	brk := led.Breakdown()
	out := Outcome{
		EnergyJ:     brk.Total(),
		Breakdown:   brk,
		DurationSec: led.Now(),
		Misses:      misses,
		Levels:      levelOccupancy(levels, n),
	}
	if n > 0 {
		out.MissRate = float64(misses) / float64(n)
	}
	return out
}
