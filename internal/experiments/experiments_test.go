package experiments

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// One shared suite: controllers train once, and every experiment runs
// once for the shape tests and the reproduction golden together.
var testSuite = keepResults(NewSuite(1))

func keepResults(s *Suite) *Suite {
	s.results = map[string]any{}
	return s
}

func TestTable2MatchesPaperShape(t *testing.T) {
	rows, err := testSuite.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.AvgMS-r.PaperAvg)/r.PaperAvg > 0.25 {
			t.Errorf("%s: avg %.3g vs paper %.3g", r.Benchmark, r.AvgMS, r.PaperAvg)
		}
		if !(r.MinMS <= r.AvgMS && r.AvgMS <= r.MaxMS) {
			t.Errorf("%s: min/avg/max not ordered: %g %g %g", r.Benchmark, r.MinMS, r.AvgMS, r.MaxMS)
		}
	}
}

func TestFig2ShowsVariation(t *testing.T) {
	s, err := testSuite.RunFig2(250)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.TimeMS) != 250 {
		t.Fatalf("series length %d", len(s.TimeMS))
	}
	sm := stats.Summarize(s.TimeMS)
	// Fig 2's point: large job-to-job variation.
	if sm.Max-sm.Min < 10 {
		t.Errorf("spread %.3g ms too small for Fig 2", sm.Max-sm.Min)
	}
	if sm.Std < 2 {
		t.Errorf("std %.3g ms too small", sm.Std)
	}
}

func TestFig3PIDLag(t *testing.T) {
	s, err := testSuite.RunFig3(250)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ActualMS) != len(s.ExpectedMS) || len(s.ActualMS) < 200 {
		t.Fatalf("series lengths %d/%d", len(s.ActualMS), len(s.ExpectedMS))
	}
	// The PID expectation must track the PREVIOUS job better than the
	// current one — the reactive lag of Fig 3.
	if s.LagCorrelation <= 0 {
		t.Errorf("lag correlation %.3f, want > 0 (expectation should lag)", s.LagCorrelation)
	}
}

func TestFig9Linearity(t *testing.T) {
	pts, err := testSuite.RunFig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 13 {
		t.Fatalf("points = %d, want 13 levels", len(pts))
	}
	// Check t vs 1/f is nearly perfectly linear: R² of a least-squares
	// line must exceed 0.99 (Fig 9 "t and 1/f do show a linear
	// relationship").
	var xs, ys []float64
	for _, p := range pts {
		xs = append(xs, p.InvFreqNS)
		ys = append(ys, p.AvgMS)
	}
	r2 := linearR2(xs, ys)
	if r2 < 0.99 {
		t.Errorf("R² = %.4f, want ≥ 0.99", r2)
	}
	// Time decreases with frequency.
	for i := 1; i < len(pts); i++ {
		if pts[i].AvgMS >= pts[i-1].AvgMS {
			t.Errorf("avg time not decreasing: level %d", i)
		}
	}
}

func linearR2(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	cov := sxy - sx*sy/n
	vx := sxx - sx*sx/n
	vy := syy - sy*sy/n
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov * cov / (vx * vy)
}

func TestFig11SwitchMatrix(t *testing.T) {
	tbl := testSuite.RunFig11()
	n := len(tbl.FreqMHz)
	if n != 13 {
		t.Fatalf("levels = %d", n)
	}
	// Diagonal free; extremes the most expensive; everything in the
	// sub-10ms range like Fig 11.
	maxV := 0.0
	for i := 0; i < n; i++ {
		if tbl.P95US[i][i] != 0 {
			t.Errorf("diagonal (%d) = %g", i, tbl.P95US[i][i])
		}
		for j := 0; j < n; j++ {
			if i != j && (tbl.P95US[i][j] <= 0 || tbl.P95US[i][j] > 10000) {
				t.Errorf("entry (%d,%d) = %g us out of range", i, j, tbl.P95US[i][j])
			}
			if tbl.P95US[i][j] > maxV {
				maxV = tbl.P95US[i][j]
			}
		}
	}
	if maxV != math.Max(tbl.P95US[0][n-1], tbl.P95US[n-1][0]) {
		t.Errorf("extreme transition is not the most expensive")
	}
}

func TestFig15Headline(t *testing.T) {
	rows, err := testSuite.RunFig15()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 8 benchmarks + average
		t.Fatalf("rows = %d", len(rows))
	}
	avg := rows[len(rows)-1]
	if avg.Benchmark != "average" {
		t.Fatalf("last row is %q", avg.Benchmark)
	}
	// Headline shape (§5.2): prediction saves large energy vs
	// performance with ≈0 misses; interactive misses a little with much
	// higher energy; PID misses a lot.
	if avg.EnergyPct["prediction"] > 60 {
		t.Errorf("prediction energy %.1f%%, want well below performance", avg.EnergyPct["prediction"])
	}
	if avg.MissPct["prediction"] > 0.5 {
		t.Errorf("prediction misses %.2f%%, want ≈0", avg.MissPct["prediction"])
	}
	if avg.EnergyPct["interactive"] < avg.EnergyPct["prediction"]+8 {
		t.Errorf("interactive energy %.1f%% not clearly above prediction %.1f%%",
			avg.EnergyPct["interactive"], avg.EnergyPct["prediction"])
	}
	if avg.MissPct["interactive"] > 5 {
		t.Errorf("interactive misses %.1f%%, paper shows ≈2%%", avg.MissPct["interactive"])
	}
	if avg.MissPct["pid"] < 5 {
		t.Errorf("pid misses %.1f%%, paper shows ≈13%%", avg.MissPct["pid"])
	}
	if math.Abs(avg.EnergyPct["pid"]-avg.EnergyPct["prediction"]) > 8 {
		t.Errorf("pid energy %.1f%% should be near prediction %.1f%% (paper: 1%% apart)",
			avg.EnergyPct["pid"], avg.EnergyPct["prediction"])
	}
	for _, r := range rows {
		if math.Abs(r.EnergyPct["performance"]-100) > 1e-9 || r.MissPct["performance"] > 0.5 {
			t.Errorf("%s: performance row wrong: %v %v", r.Benchmark, r.EnergyPct, r.MissPct)
		}
	}
}

func TestFig16BudgetSweep(t *testing.T) {
	sw, err := testSuite.RunFig16(workload.LDecode())
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.NormBudgets) != 9 {
		t.Fatalf("budgets = %d, want 9", len(sw.NormBudgets))
	}
	pe := sw.EnergyPct["prediction"]
	pm := sw.MissPct["prediction"]
	// Longer budgets save more energy: last point well below first.
	if pe[len(pe)-1] >= pe[0]-5 {
		t.Errorf("prediction energy does not fall with budget: %.1f → %.1f", pe[0], pe[len(pe)-1])
	}
	// At generous budgets prediction misses nothing.
	if pm[len(pm)-1] > 0.5 {
		t.Errorf("misses at 1.4 budget: %.2f%%", pm[len(pm)-1])
	}
	// Below budget 1.0, even the performance governor misses; the
	// prediction governor's misses stay close to that floor ("most of
	// the deadline misses are ones that are impossible to meet").
	for i, f := range sw.NormBudgets {
		if f < 0.95 {
			perfMiss := sw.MissPct["performance"][i]
			if perfMiss <= 0 {
				t.Errorf("budget %.1f: performance misses 0, expected some", f)
			}
			if pm[i] > perfMiss+12 {
				t.Errorf("budget %.1f: prediction misses %.1f%% far above performance %.1f%%",
					f, pm[i], perfMiss)
			}
		}
	}
}

func TestFig17Overheads(t *testing.T) {
	rows, err := testSuite.RunFig17()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	var sphinx, others float64
	var nOthers int
	for _, r := range rows[:8] {
		if r.PredictorMS < 0 || r.DVFSMS < 0 {
			t.Errorf("%s: negative overhead", r.Benchmark)
		}
		if r.Benchmark == "pocketsphinx" {
			sphinx = r.PredictorMS
		} else {
			others += r.PredictorMS
			nOthers++
		}
		// Switch overhead is sub-3ms everywhere (Fig 17's scale).
		if r.DVFSMS > 3 {
			t.Errorf("%s: switch overhead %.2f ms too large", r.Benchmark, r.DVFSMS)
		}
	}
	// pocketsphinx's predictor is the most expensive by far (Fig 17
	// shows ~24 ms vs ≤3 ms for the rest).
	if sphinx < 3*(others/float64(nOthers)) {
		t.Errorf("pocketsphinx predictor %.2f ms not dominant (others avg %.2f ms)",
			sphinx, others/float64(nOthers))
	}
	// The rest stay cheap relative to a 50 ms budget.
	if others/float64(nOthers) > 3 {
		t.Errorf("average predictor overhead %.2f ms too large", others/float64(nOthers))
	}
}

func TestFig18OverheadLadder(t *testing.T) {
	rows, err := testSuite.RunFig18()
	if err != nil {
		t.Fatal(err)
	}
	avg := rows[len(rows)-1]
	// Removing overheads can only help (allowing tiny numeric slack).
	if avg.NoDVFSPct > avg.PredictionPct+0.5 {
		t.Errorf("w/o dvfs %.1f%% above prediction %.1f%%", avg.NoDVFSPct, avg.PredictionPct)
	}
	if avg.NoPredDVFSPct > avg.NoDVFSPct+0.5 {
		t.Errorf("w/o pred+dvfs %.1f%% above w/o dvfs %.1f%%", avg.NoPredDVFSPct, avg.NoDVFSPct)
	}
	// Oracle with the same overhead removal is the floor — compared
	// over the six benchmarks that have an oracle (the averages in the
	// row mix different subsets).
	var oSum, nSum float64
	var oN int
	for _, r := range rows[:8] {
		if math.IsNaN(r.OraclePct) {
			continue
		}
		oSum += r.OraclePct
		nSum += r.NoPredDVFSPct
		oN++
	}
	if oSum/float64(oN) > nSum/float64(oN)+0.5 {
		t.Errorf("oracle avg %.1f%% above w/o pred+dvfs avg %.1f%% (same subset)",
			oSum/float64(oN), nSum/float64(oN))
	}
	// Oracle is absent for uzbl and xpilot, as in the paper.
	for _, r := range rows[:8] {
		if r.Benchmark == "uzbl" || r.Benchmark == "xpilot" {
			if !math.IsNaN(r.OraclePct) {
				t.Errorf("%s: oracle should be absent", r.Benchmark)
			}
		} else if math.IsNaN(r.OraclePct) {
			t.Errorf("%s: oracle missing", r.Benchmark)
		}
	}
}

func TestFig19OverPredictionSkew(t *testing.T) {
	rows, err := testSuite.RunFig19()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 (pocketsphinx separate)", len(rows))
	}
	overSkewed := 0
	for _, r := range rows {
		if r.MeanMS > 0 {
			overSkewed++
		}
		if !(r.Box.Q1 <= r.Box.Median && r.Box.Median <= r.Box.Q3) {
			t.Errorf("%s: box not ordered", r.Benchmark)
		}
	}
	// "the prediction skews toward over-prediction with average errors
	// greater than 0" — allow one exception.
	if overSkewed < 6 {
		t.Errorf("only %d/7 benchmarks skew to over-prediction", overSkewed)
	}
	ps, err := testSuite.RunFig19Pocketsphinx()
	if err != nil {
		t.Fatal(err)
	}
	if ps.MeanMS <= 0 {
		t.Errorf("pocketsphinx mean error %.3g ms, paper reports large over-prediction", ps.MeanMS)
	}
}

func TestFig20AlphaTradeoff(t *testing.T) {
	pts, err := testSuite.RunFig20()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	lo, hi := pts[0], pts[len(pts)-1] // α=1 vs α=1000
	if lo.Alpha != 1 || hi.Alpha != 1000 {
		t.Fatalf("alpha order wrong: %v", pts)
	}
	// Decreasing α trades misses for energy (Fig 20).
	if lo.EnergyPct > hi.EnergyPct+0.5 {
		t.Errorf("energy at α=1 (%.1f%%) above α=1000 (%.1f%%)", lo.EnergyPct, hi.EnergyPct)
	}
	if lo.MissPct < hi.MissPct {
		t.Errorf("misses at α=1 (%.2f%%) below α=1000 (%.2f%%)", lo.MissPct, hi.MissPct)
	}
	if hi.MissPct > 0.5 {
		t.Errorf("α=1000 misses %.2f%%, want ≈0", hi.MissPct)
	}
}

func TestFig21Idling(t *testing.T) {
	rows, err := testSuite.RunFig21()
	if err != nil {
		t.Fatal(err)
	}
	avg := rows[len(rows)-1]
	// Idling helps every governor on average, performance the most.
	for _, name := range GovernorNames {
		if avg.IdleEnergyPct[name] > avg.EnergyPct[name]+0.5 {
			t.Errorf("%s: idling raised energy %.1f → %.1f", name,
				avg.EnergyPct[name], avg.IdleEnergyPct[name])
		}
	}
	perfGain := avg.EnergyPct["performance"] - avg.IdleEnergyPct["performance"]
	predGain := avg.EnergyPct["prediction"] - avg.IdleEnergyPct["prediction"]
	if perfGain < predGain {
		t.Errorf("performance gains least from idling? perf %.1f vs pred %.1f", perfGain, predGain)
	}
	// Prediction+idle still beats performance+idle on average (§5.5).
	if avg.IdleEnergyPct["prediction"] >= avg.IdleEnergyPct["performance"] {
		t.Errorf("prediction+idle %.1f%% not below performance+idle %.1f%%",
			avg.IdleEnergyPct["prediction"], avg.IdleEnergyPct["performance"])
	}
}

func TestXPlatFeatureStability(t *testing.T) {
	rows, err := testSuite.RunXPlat()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	stable := 0
	jacc := 0.0
	for _, r := range rows {
		if r.Relation == "same" || r.Relation == "subset" {
			stable++
		}
		jacc += r.Jaccard
	}
	// §4.2: "for all but three of the benchmarks ... exactly the same";
	// we require a majority stable and high average overlap.
	if stable < 5 {
		t.Errorf("only %d/8 benchmarks feature-stable across platforms", stable)
	}
	if jacc/8 < 0.6 {
		t.Errorf("average Jaccard %.2f too low", jacc/8)
	}
}

// §2.2's motivating numbers: the average-sized static level misses
// massively; the worst-case-sized level wastes energy; per-job
// prediction beats both on the Pareto front.
func TestStaticLevelsMotivation(t *testing.T) {
	rows, err := testSuite.RunStatic()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	avg, worst, pred := rows[0], rows[1], rows[2]
	if avg.MissPct < 20 {
		t.Errorf("average-sized level misses %.1f%%, expected massive misses", avg.MissPct)
	}
	if worst.MissPct > 0.5 {
		t.Errorf("worst-case level misses %.1f%%, want ≈0", worst.MissPct)
	}
	if pred.EnergyPct >= worst.EnergyPct {
		t.Errorf("prediction energy %.1f%% not below worst-case static %.1f%%",
			pred.EnergyPct, worst.EnergyPct)
	}
	if pred.MissPct > 0.5 {
		t.Errorf("prediction misses %.2f%%", pred.MissPct)
	}
}

// §5.1: "we saw similar trends when running on the A15 core".
func TestA15Trends(t *testing.T) {
	rows, err := testSuite.RunA15Trends()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 2 budgets x 4 governors", len(rows))
	}
	pick := func(budgetMS float64, g string) A15Row {
		for _, r := range rows {
			if r.BudgetMS == budgetMS && r.Governor == g {
				return r
			}
		}
		t.Fatalf("missing row %g/%s", budgetMS, g)
		return A15Row{}
	}
	// Paper budget (50 ms): prediction saves most (or ties) and misses
	// nothing — the trend transfers.
	pred50 := pick(50, "prediction")
	if pred50.EnergyPct > 35 || pred50.MissPct > 0.5 {
		t.Errorf("A15@50ms prediction = %.1f%%/%.2f%%", pred50.EnergyPct, pred50.MissPct)
	}
	for _, g := range []string{"interactive", "pid"} {
		if r := pick(50, g); r.EnergyPct < pred50.EnergyPct-2 {
			t.Errorf("A15@50ms %s energy %.1f%% below prediction %.1f%%", g, r.EnergyPct, pred50.EnergyPct)
		}
	}
	// Tight budget (20 ms): prediction alone is miss-free; the PID
	// undercuts its energy only by missing.
	pred20 := pick(20, "prediction")
	if pred20.MissPct > 0.5 {
		t.Errorf("A15@20ms prediction misses %.2f%%", pred20.MissPct)
	}
	if pid := pick(20, "pid"); pid.MissPct < 2 {
		t.Errorf("A15@20ms pid misses %.1f%%, expected the reactive lag to transfer", pid.MissPct)
	}
}
