package experiments

// Text renderers for the paper's tables and figures: aligned tables for
// Table 2 and the bar-chart figures, and row listings for the series
// and sweep figures. cmd/dvfsbench prints them.

import (
	"fmt"
	"math"
	"strings"
)

// short abbreviates a governor name to at most four characters for
// column headers.
func short(g string) string {
	if len(g) > 4 {
		return g[:4]
	}
	return g
}

// Table2 renders the benchmark characteristics table.
func Table2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: job execution time statistics at maximum frequency [ms]\n")
	fmt.Fprintf(&b, "%-13s %-36s %8s %8s %8s   %s\n", "benchmark", "task", "min", "avg", "max", "paper(min/avg/max)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %-36s %8.2f %8.2f %8.2f   %.2f / %.2f / %.2f\n",
			r.Benchmark, r.Task, r.MinMS, r.AvgMS, r.MaxMS, r.PaperMin, r.PaperAvg, r.PaperMax)
	}
	return b.String()
}

// Fig15 renders normalized energy and misses per governor.
func Fig15(rows []Fig15Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 15: normalized energy [%%] and deadline misses [%%] (50 ms budget; 4 s pocketsphinx)\n")
	fmt.Fprintf(&b, "%-13s %28s   %28s\n", "", "energy (perf/inter/pid/pred)", "misses (perf/inter/pid/pred)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %6.1f %6.1f %6.1f %6.1f   %6.1f %6.1f %6.1f %6.1f\n",
			r.Benchmark,
			r.EnergyPct["performance"], r.EnergyPct["interactive"], r.EnergyPct["pid"], r.EnergyPct["prediction"],
			r.MissPct["performance"], r.MissPct["interactive"], r.MissPct["pid"], r.MissPct["prediction"])
	}
	return b.String()
}

// Fig16 renders one benchmark's budget sweep.
func Fig16(sw *Fig16Sweep) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 16 (%s): normalized budget sweep\n", sw.Benchmark)
	fmt.Fprintf(&b, "%-8s", "budget")
	for _, g := range GovernorNames {
		fmt.Fprintf(&b, " %11s", "E:"+short(g))
	}
	for _, g := range GovernorNames {
		fmt.Fprintf(&b, " %11s", "M:"+short(g))
	}
	fmt.Fprintln(&b)
	for i, f := range sw.NormBudgets {
		fmt.Fprintf(&b, "%-8.1f", f)
		for _, g := range GovernorNames {
			fmt.Fprintf(&b, " %11.1f", sw.EnergyPct[g][i])
		}
		for _, g := range GovernorNames {
			fmt.Fprintf(&b, " %11.1f", sw.MissPct[g][i])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Fig17 renders predictor and switch overheads.
func Fig17(rows []Fig17Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 17: average predictor and DVFS switching time per job [ms]\n")
	fmt.Fprintf(&b, "%-13s %10s %10s %12s\n", "benchmark", "predictor", "dvfs", "pred+dvfs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %10.2f %10.2f %12.2f\n",
			r.Benchmark, r.PredictorMS, r.DVFSMS, r.PredictorMS+r.DVFSMS)
	}
	return b.String()
}

// Fig18 renders the overhead-removal ladder.
func Fig18(rows []Fig18Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 18: normalized energy with overheads removed and oracle prediction [%%]\n")
	fmt.Fprintf(&b, "%-13s %10s %10s %16s %10s\n", "benchmark", "prediction", "w/o dvfs", "w/o pred+dvfs", "oracle")
	for _, r := range rows {
		oracle := "    —"
		if !math.IsNaN(r.OraclePct) {
			oracle = fmt.Sprintf("%10.1f", r.OraclePct)
		}
		fmt.Fprintf(&b, "%-13s %10.1f %10.1f %16.1f %s\n",
			r.Benchmark, r.PredictionPct, r.NoDVFSPct, r.NoPredDVFSPct, oracle)
	}
	return b.String()
}

// Fig19 renders the prediction-error box plots.
func Fig19(rows []Fig19Row, sphinx *Fig19Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 19: prediction error [ms] (positive = over-prediction)\n")
	fmt.Fprintf(&b, "%-13s %9s %9s %9s %9s %9s %9s %8s\n",
		"benchmark", "whiskLo", "q1", "median", "q3", "whiskHi", "mean", "outliers")
	emit := func(r Fig19Row) {
		fmt.Fprintf(&b, "%-13s %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %8d\n",
			r.Benchmark, r.Box.WhiskerLo, r.Box.Q1, r.Box.Median, r.Box.Q3, r.Box.WhiskerHi,
			r.MeanMS, r.NumOut)
	}
	for _, r := range rows {
		emit(r)
	}
	if sphinx != nil {
		emit(*sphinx)
	}
	return b.String()
}

// Fig20 renders the under-prediction penalty sweep.
func Fig20(pts []Fig20Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 20: energy vs misses for under-predict penalty α (ldecode)\n")
	fmt.Fprintf(&b, "%8s %10s %10s\n", "alpha", "energy[%]", "misses[%]")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8.0f %10.1f %10.2f\n", p.Alpha, p.EnergyPct, p.MissPct)
	}
	return b.String()
}

// Fig21 renders the idling study.
func Fig21(rows []Fig21Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 21: normalized energy with (+idle) and without idling [%%]\n")
	fmt.Fprintf(&b, "%-13s", "benchmark")
	for _, g := range GovernorNames {
		fmt.Fprintf(&b, " %6s", short(g))
	}
	for _, g := range GovernorNames {
		fmt.Fprintf(&b, " %6s", short(g)+"+i")
	}
	fmt.Fprintln(&b)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s", r.Benchmark)
		for _, g := range GovernorNames {
			fmt.Fprintf(&b, " %6.1f", r.EnergyPct[g])
		}
		for _, g := range GovernorNames {
			fmt.Fprintf(&b, " %6.1f", r.IdleEnergyPct[g])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Fig11 renders the switch-time matrix as a compact table (µs).
func Fig11(tbl *Fig11Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 11: 95th-percentile DVFS switching times [µs] (rows: from, cols: to)\n")
	fmt.Fprintf(&b, "%8s", "MHz")
	for _, f := range tbl.FreqMHz {
		fmt.Fprintf(&b, " %6.0f", f)
	}
	fmt.Fprintln(&b)
	for i, f := range tbl.FreqMHz {
		fmt.Fprintf(&b, "%8.0f", f)
		for j := range tbl.FreqMHz {
			fmt.Fprintf(&b, " %6.0f", tbl.P95US[i][j])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Fig9 renders the time-vs-1/f linearity check.
func Fig9(pts []Fig9Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9: average ldecode job time vs 1/frequency\n")
	fmt.Fprintf(&b, "%8s %10s %10s\n", "MHz", "1/f [ns]", "avg [ms]")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8.0f %10.2f %10.2f\n", p.FreqMHz, p.InvFreqNS, p.AvgMS)
	}
	return b.String()
}

// Fig3 renders the PID-lag comparison over a window of jobs.
func Fig3(s *Fig3Series, window int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3: actual vs PID-expected job time [ms] (lag correlation %+.3f)\n", s.LagCorrelation)
	fmt.Fprintf(&b, "%6s %10s %10s\n", "job", "actual", "expected")
	n := len(s.JobIndex)
	if window > n {
		window = n
	}
	for i := 0; i < window; i++ {
		fmt.Fprintf(&b, "%6d %10.2f %10.2f\n", s.JobIndex[i], s.ActualMS[i], s.ExpectedMS[i])
	}
	return b.String()
}

// XPlat renders the cross-platform feature-selection comparison.
func XPlat(rows []XPlatRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4.2: feature selection across platforms (ARM vs x86)\n")
	fmt.Fprintf(&b, "%-13s %-8s %8s   %s\n", "benchmark", "relation", "jaccard", "ARM features")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %-8s %8.2f   %s\n",
			r.Benchmark, r.Relation, r.Jaccard, strings.Join(r.ARMFeatures, ", "))
	}
	return b.String()
}

// AblationMargin renders the prediction-margin sweep.
func AblationMargin(pts []MarginPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: prediction safety margin (ldecode)\n")
	fmt.Fprintf(&b, "%8s %10s %10s\n", "margin", "energy[%]", "misses[%]")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8.2f %10.1f %10.2f\n", p.Margin, p.EnergyPct, p.MissPct)
	}
	return b.String()
}

// AblationSwitchTable renders the p95-vs-mean switch-table comparison.
func AblationSwitchTable(rows []SwitchTableResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: switch-time estimate in the selector (ldecode)\n")
	fmt.Fprintf(&b, "%8s %10s %10s\n", "table", "energy[%]", "misses[%]")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8s %10.1f %10.2f\n", r.Table, r.EnergyPct, r.MissPct)
	}
	return b.String()
}

// AblationSlice renders the Lasso slice-reduction comparison.
func AblationSlice(rows []SliceAblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: Lasso feature selection vs keeping all features\n")
	fmt.Fprintf(&b, "%-13s %12s %12s %14s %14s\n",
		"benchmark", "lassoStmts", "fullStmts", "lassoPred[ms]", "fullPred[ms]")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %12d %12d %14.3f %14.3f\n",
			r.Benchmark, r.LassoStmts, r.FullStmts, r.LassoPredMS, r.FullPredMS)
	}
	return b.String()
}

// Placement renders the §4.3 predictor-placement comparison.
func Placement(rows []PlacementRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4.3: predictor placement at tight budgets (1.0× max job time)\n")
	fmt.Fprintf(&b, "%-13s %-6s %27s   %27s\n", "", "ahead?", "energy (seq/pipe/par)", "misses (seq/pipe/par)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %-6t %8.1f %8.1f %8.1f   %8.1f %8.1f %8.1f\n",
			r.Benchmark, r.KnownAhead,
			r.EnergyPct["sequential"], r.EnergyPct["pipelined"], r.EnergyPct["parallel"],
			r.MissPct["sequential"], r.MissPct["pipelined"], r.MissPct["parallel"])
	}
	return b.String()
}

// Batch renders the §7 batched-prediction amortization study.
func Batch(pts []BatchPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§7: batched prediction for millisecond budgets (2048, 1.0× max job time)\n")
	fmt.Fprintf(&b, "%8s %10s %10s\n", "K", "energy[%]", "misses[%]")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8d %10.1f %10.2f\n", p.K, p.EnergyPct, p.MissPct)
	}
	return b.String()
}

// Hetero renders the §3.5 heterogeneous-cores study.
func Hetero(pts []HeteroPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.5: heterogeneous big.LITTLE operating points (ldecode)\n")
	fmt.Fprintf(&b, "%8s %12s %10s %12s %10s %12s %10s %10s\n",
		"budget", "A7 E[%]", "A7 M[%]", "bL E[%]", "bL M[%]", "bL+EA E[%]", "EA M[%]", "A15 share")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8.1f %12.1f %10.1f %12.1f %10.1f %12.1f %10.1f %9.0f%%\n",
			p.NormBudget, p.A7EnergyPct, p.A7MissPct, p.BigEnergyPct, p.BigMissPct,
			p.EAEnergyPct, p.EAMissPct, 100*p.A15Share)
	}
	return b.String()
}

// Hints renders the §3.5 programmer-hint study.
func Hints(rows []HintsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.5: programmer hint features (value-dependent cost benchmarks)\n")
	fmt.Fprintf(&b, "%-13s %10s %10s %9s %9s %10s %10s\n",
		"benchmark", "E base", "E hints", "M base", "M hints", "mae base", "mae hints")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %9.1f%% %9.1f%% %8.1f%% %8.1f%% %8.2fms %8.2fms\n",
			r.Benchmark, r.BaseEnergyPct, r.HintEnergyPct,
			r.BaseMissPct, r.HintMissPct, r.BaseMAEms, r.HintMAEms)
	}
	return b.String()
}

// OverheadCap renders the predictor-time-cap sweep.
func OverheadCap(pts []OverheadCapPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.5: overhead-aware feature selection (pocketsphinx)\n")
	fmt.Fprintf(&b, "%10s %12s %10s %10s %10s\n", "cap[ms]", "pred[ms]", "features", "energy[%]", "misses[%]")
	for _, p := range pts {
		cap := "   none"
		if p.CapMS > 0 {
			cap = fmt.Sprintf("%7.1f", p.CapMS)
		}
		fmt.Fprintf(&b, "%10s %12.2f %10d %10.1f %10.2f\n",
			cap, p.PredictorMS, p.Features, p.EnergyPct, p.MissPct)
	}
	return b.String()
}

// MultiTask renders the §4.1 multi-task scenario.
func MultiTask(rows []MultiTaskRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4.1: two tasks sharing the core (ldecode@10fps + xpilot@20fps)\n")
	fmt.Fprintf(&b, "%-13s %10s %14s %14s\n", "governors", "energy[%]", "ldecode M[%]", "xpilot M[%]")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %10.1f %14.2f %14.2f\n", r.Scenario, r.EnergyPct, r.MissPct[0], r.MissPct[1])
	}
	return b.String()
}

// Quadratic renders the higher-order-model comparison.
func Quadratic(rows []QuadraticRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.5: linear vs quadratic execution-time models\n")
	fmt.Fprintf(&b, "%-13s %10s %10s %10s %10s %8s %8s\n",
		"benchmark", "mae lin", "mae quad", "E lin[%]", "E quad[%]", "M lin", "M quad")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %8.2fms %8.2fms %10.1f %10.1f %7.1f%% %7.1f%%\n",
			r.Benchmark, r.LinearMAEms, r.QuadMAEms,
			r.LinearEnergyPct, r.QuadEnergyPct, r.LinearMissPct, r.QuadMissPct)
	}
	return b.String()
}

// Baselines renders the extended governor sweep.
func Baselines(name string, rows []BaselineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extended baselines (%s, paper budget)\n", name)
	fmt.Fprintf(&b, "%-13s %10s %10s\n", "governor", "energy[%]", "misses[%]")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %10.1f %10.2f\n", r.Governor, r.EnergyPct, r.MissPct)
	}
	return b.String()
}

// Static renders §2.2's static-level motivation numbers.
func Static(rows []StaticRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§2.2: why per-job control — single static levels on ldecode\n")
	fmt.Fprintf(&b, "%-18s %10s %10s %10s\n", "policy", "MHz", "energy[%]", "misses[%]")
	for _, r := range rows {
		mhz := "per-job"
		if r.LevelMHz > 0 {
			mhz = fmt.Sprintf("%.0f", r.LevelMHz)
		}
		fmt.Fprintf(&b, "%-18s %10s %10.1f %10.2f\n", r.Policy, mhz, r.EnergyPct, r.MissPct)
	}
	return b.String()
}

// A15 renders the big-cluster trend check.
func A15(rows []A15Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5.1: governor trends on the A15 (big) cluster, ldecode\n")
	fmt.Fprintf(&b, "%-13s %10s %10s %10s\n", "governor", "budget", "energy[%]", "misses[%]")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %8.0fms %10.1f %10.2f\n", r.Governor, r.BudgetMS, r.EnergyPct, r.MissPct)
	}
	return b.String()
}
