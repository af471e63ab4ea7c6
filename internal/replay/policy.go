package replay

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/dvfs"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/stats"
)

// policy decides a counterfactual level for each traced job. decide
// returns the target level and the predictor overhead the policy pays
// before the job (zero for reactive baselines). onEnd, when non-nil,
// feeds the executed time back (the PID's control loop). free marks
// the paper's overhead-removed oracle analysis: level changes cost
// neither time nor energy and no predictor runs.
type policy struct {
	name   string
	free   bool
	decide func(j *job, cur platform.Level, now float64) (platform.Level, float64)
	onEnd  func(j *job, at platform.Level, execSec float64)
}

// runPolicy walks the group's jobs through the counterfactual
// timeline under one policy, mirroring the simulator's loop: idle to
// the release, pay the predictor at the pre-switch level, pay the
// transition, execute at the target, and finally drain to the
// horizon. Execution times come from each job's cross-level
// translation, switch latencies from the platform's jitter model:
// the k-th switch pays the group's k-th jitter deviate z[k].
func runPolicy(g *group, p policy, plat *platform.Platform, power *platform.PowerTable, z []float64) Outcome {
	led := platform.NewLedger(power)
	levels := map[int]int{}
	misses := 0
	switches := 0

	cur := plat.MaxLevel()
	for _, j := range g.jobs {
		obsLevel, err := plat.Level(j.level)
		if err != nil {
			obsLevel = plat.MaxLevel()
		}
		led.IdleUntil(j.release, cur.Index)
		target, predSec := p.decide(j, cur, led.Now())
		var lat float64
		if target.Index != cur.Index && !p.free {
			lat = plat.SwitchLatency(cur, target, z[switches])
			switches++
		}
		exec := j.timeAt(target, obsLevel, g.rho)
		led.Run(cur.Index, target.Index, predSec, lat, exec)
		cur = target
		levels[cur.Index]++
		if led.Now() > j.deadline+timeEps {
			misses++
		}
		if p.onEnd != nil {
			p.onEnd(j, cur, exec)
		}
	}
	return finishOutcome(g, &led, cur.Index, misses, levels)
}

// translatePredictor prices the logged predictor slice time (measured
// at the traced from-level) at the counterfactual current level, via
// the same ρ translation used for job times.
func translatePredictor(j *job, cur platform.Level, plat *platform.Platform, rho float64) float64 {
	if j.predictorSec <= 0 {
		return 0
	}
	from, err := plat.Level(j.from)
	if err != nil {
		return j.predictorSec
	}
	return j.predictorSec * (rho + (1-rho)*from.EffFreqHz()/cur.EffFreqHz())
}

// predictionPolicy re-runs the paper's selection rule from the logged
// raw (tfmin, tfmax) predictions: effective budget = remaining budget
// − predictor cost, margin-inflated model, lowest feasible level with
// per-level switch-cost subtraction (§3.4). shift is the α-sweep's
// prediction offset; margin overrides the traced margin when ≥ 0.
func predictionPolicy(name string, g *group, plat *platform.Platform, table *platform.SwitchTable, margin float64, shift float64) policy {
	return policy{
		name: name,
		decide: func(j *job, cur platform.Level, now float64) (platform.Level, float64) {
			if !j.predicted {
				// The controller's own fallback: a job it cannot
				// predict runs at maximum frequency.
				return plat.MaxLevel(), 0
			}
			m := margin
			if m < 0 {
				m = j.margin
			}
			predSec := translatePredictor(j, cur, plat, g.rho)
			sel := &dvfs.Selector{Plat: plat, Switch: table, Margin: m}
			eff := (j.deadline - now) - predSec
			tfmin := math.Max(j.tfmin+shift, 0)
			tfmax := math.Max(j.tfmax+shift, 0)
			return sel.Pick(cur, tfmin, tfmax, eff), predSec
		},
	}
}

// pidPolicy wraps the repository's PID baseline around the trace: it
// sees exactly what a deployed PID would have seen — each job's
// release, deadline, and (after the fact) executed time — and nothing
// the predictor knew.
func pidPolicy(g *group, plat *platform.Platform, table *platform.SwitchTable) policy {
	pid := &governor.PID{Plat: plat, Switch: table, MemFraction: g.rho}
	return policy{
		name: "pid",
		decide: func(j *job, cur platform.Level, now float64) (platform.Level, float64) {
			dec := pid.JobStart(&governor.Job{
				Index:              j.idx,
				ReleaseSec:         j.release,
				DeadlineSec:        j.deadline,
				RemainingBudgetSec: j.deadline - now,
			}, cur)
			return dec.Target, 0
		},
		onEnd: func(j *job, at platform.Level, execSec float64) {
			pid.JobEnd(nil, execSec)
		},
	}
}

// oraclePolicy picks the minimum level that meets the deadline given
// the job's (translated) observed time, with overheads removed — the
// paper's energy-savings upper bound (Fig 18's oracle).
func oraclePolicy(g *group, plat *platform.Platform) policy {
	return policy{
		name: "oracle",
		free: true,
		decide: func(j *job, cur platform.Level, now float64) (platform.Level, float64) {
			obsLevel, err := plat.Level(j.level)
			if err != nil {
				obsLevel = plat.MaxLevel()
			}
			budget := j.deadline - now
			for _, l := range plat.Levels {
				if j.timeAt(l, obsLevel, g.rho) <= budget {
					return l, 0
				}
			}
			return plat.MaxLevel(), 0
		},
	}
}

// jitterStream draws the n standard-normal deviates every
// counterfactual timeline of a group shares. A group has n jobs, so no
// policy switches more than n times, and the k-th switch of each
// policy pays z[k]: the deviate its own rand source seeded with seed
// would have drawn, at one seeding per group instead of one per
// policy.
func jitterStream(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	z := make([]float64, n)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	return z
}

// analyzeGroup reconstructs the trace and runs every counterfactual.
func analyzeGroup(g *group, opts Options) GroupResult {
	plat := opts.Plat
	table := platform.MeasureSwitchTable(plat, 500, 0.95, opts.Seed+2000)
	power := platform.NewPowerTable(plat)
	z := jitterStream(opts.Seed, len(g.jobs))

	gr := GroupResult{
		Workload:  g.workload,
		Governor:  g.governor,
		Jobs:      len(g.jobs),
		PeriodSec: g.period,
		BudgetSec: g.budget,
		Rho:       g.rho,
		Approx:    g.approx,
		Traced:    reconstruct(g, plat, power),
	}
	for _, j := range g.jobs {
		if j.predicted {
			gr.Predicted++
		}
	}
	// Measured per-phase attribution: what the static predictor-cost
	// estimate actually decomposes into. Reporting only — the energy
	// reconstruction above already used the estimates the trace charged.
	if n := len(g.spanLedgers); n > 0 {
		gr.SpanJobs = n
		gr.Phases = obs.AnalyzePhases(g.spanLedgers)
		gr.EstPredictorSec = g.estSum / float64(n)
		var meas float64
		for i := range g.spanLedgers {
			for _, sp := range g.spanLedgers[i].Spans {
				if sp.Depth == 0 && (sp.Name == obs.PhaseDecide || sp.Name == obs.PhaseServe) {
					meas += sp.DurSec
					break
				}
			}
		}
		gr.MeasPredictorSec = meas / float64(n)
	}

	policies := []policy{
		{name: "performance", decide: func(_ *job, _ platform.Level, _ float64) (platform.Level, float64) {
			return plat.MaxLevel(), 0
		}},
		{name: "powersave", decide: func(_ *job, _ platform.Level, _ float64) (platform.Level, float64) {
			return plat.MinLevel(), 0
		}},
		oraclePolicy(g, plat),
		pidPolicy(g, plat, table),
	}
	if gr.Predicted > 0 {
		policies = append(policies, predictionPolicy("prediction", g, plat, table, -1, 0))
	}

	outs := make([]Outcome, len(policies))
	var perf float64
	for i, p := range policies {
		outs[i] = runPolicy(g, p, plat, power, z)
		if p.name == "performance" {
			perf = outs[i].EnergyJ
		}
	}
	for i, p := range policies {
		pr := PolicyResult{Name: p.name, Outcome: outs[i]}
		if perf > 0 {
			pr.NormEnergyPct = 100 * outs[i].EnergyJ / perf
		}
		if gr.Traced.EnergyJ > 0 {
			pr.DeltaEnergyPct = 100 * (outs[i].EnergyJ - gr.Traced.EnergyJ) / gr.Traced.EnergyJ
		}
		pr.DeltaMissRate = outs[i].MissRate - gr.Traced.MissRate
		gr.Policies = append(gr.Policies, pr)
	}

	if gr.Predicted > 0 {
		for _, m := range opts.Margins {
			o := runPolicy(g, predictionPolicy("margin", g, plat, table, m, 0), plat, power, z)
			gr.MarginSweep = append(gr.MarginSweep, sweepPoint(m, o, perf))
		}
		var residuals []float64
		for _, j := range g.jobs {
			if j.predicted {
				residuals = append(residuals, j.residual)
			}
		}
		sort.Float64s(residuals)
		base := stats.QuantileSorted(residuals, opts.TracedAlpha/(1+opts.TracedAlpha))
		for _, a := range opts.Alphas {
			shift := 0.0
			if !math.IsNaN(base) {
				shift = stats.QuantileSorted(residuals, a/(1+a)) - base
			}
			o := runPolicy(g, predictionPolicy("alpha", g, plat, table, -1, shift), plat, power, z)
			gr.AlphaSweep = append(gr.AlphaSweep, sweepPoint(a, o, perf))
		}
	}
	return gr
}

func sweepPoint(param float64, o Outcome, perfJ float64) SweepPoint {
	sp := SweepPoint{Param: param, EnergyJ: o.EnergyJ, Misses: o.Misses, MissRate: o.MissRate}
	if perfJ > 0 {
		sp.NormEnergyPct = 100 * o.EnergyJ / perfJ
	}
	return sp
}
