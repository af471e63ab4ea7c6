package render_test

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// Layout tests for the text renderers of the paper's tables and
// figures in package experiments.

func govMap(v float64) map[string]float64 {
	m := map[string]float64{}
	for _, g := range experiments.GovernorNames {
		m[g] = v
	}
	return m
}

func govSlices(v float64, n int) map[string][]float64 {
	m := map[string][]float64{}
	for _, g := range experiments.GovernorNames {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		m[g] = s
	}
	return m
}

func TestTable2Render(t *testing.T) {
	out := experiments.Table2([]experiments.Table2Row{{
		Benchmark: "ldecode", Task: "Decode one frame",
		MinMS: 6.2, AvgMS: 20.4, MaxMS: 32.5,
		PaperMin: 6.2, PaperAvg: 20.4, PaperMax: 32.5,
	}})
	for _, want := range []string{"ldecode", "20.40", "Decode one frame"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig15Render(t *testing.T) {
	out := experiments.Fig15([]experiments.Fig15Row{{
		Benchmark: "sha", EnergyPct: govMap(80), MissPct: govMap(1),
	}})
	if !strings.Contains(out, "sha") || !strings.Contains(out, "80.0") {
		t.Errorf("fig15 render broken:\n%s", out)
	}
}

// The "pid" governor name is shorter than the 4-character column
// abbreviation; Fig16/Fig21 headers must not panic on it.
func TestFig16RenderShortNames(t *testing.T) {
	sw := &experiments.Fig16Sweep{
		Benchmark:   "sha",
		NormBudgets: []float64{0.6, 1.0},
		EnergyPct:   govSlices(50, 2),
		MissPct:     govSlices(0, 2),
	}
	out := experiments.Fig16(sw)
	if !strings.Contains(out, "E:pid") || !strings.Contains(out, "M:perf") {
		t.Errorf("fig16 headers broken:\n%s", out)
	}
}

func TestFig17Render(t *testing.T) {
	out := experiments.Fig17([]experiments.Fig17Row{{Benchmark: "uzbl", PredictorMS: 0.5, DVFSMS: 0.3}})
	if !strings.Contains(out, "uzbl") || !strings.Contains(out, "0.80") {
		t.Errorf("fig17 render broken:\n%s", out)
	}
}

func TestFig18RenderOracleDash(t *testing.T) {
	out := experiments.Fig18([]experiments.Fig18Row{
		{Benchmark: "uzbl", PredictionPct: 40, NoDVFSPct: 39, NoPredDVFSPct: 38,
			OraclePct: nan()},
	})
	if !strings.Contains(out, "—") {
		t.Errorf("missing oracle dash:\n%s", out)
	}
}

func nan() float64 {
	v := 0.0
	return v / v
}

func TestFig19Render(t *testing.T) {
	row := experiments.Fig19Row{
		Benchmark: "sha",
		Box:       stats.ComputeBoxPlot([]float64{1, 2, 3, 4, 5}),
		MeanMS:    3,
	}
	out := experiments.Fig19([]experiments.Fig19Row{row}, &row)
	if strings.Count(out, "sha") != 2 {
		t.Errorf("fig19 render broken:\n%s", out)
	}
}

func TestFig20Fig21Render(t *testing.T) {
	out := experiments.Fig20([]experiments.Fig20Point{{Alpha: 100, EnergyPct: 55, MissPct: 0}})
	if !strings.Contains(out, "100") || !strings.Contains(out, "55.0") {
		t.Errorf("fig20 render broken:\n%s", out)
	}
	out = experiments.Fig21([]experiments.Fig21Row{{
		Benchmark: "sha", EnergyPct: govMap(70), IdleEnergyPct: govMap(60),
	}})
	if !strings.Contains(out, "pid+i") || !strings.Contains(out, "60.0") {
		t.Errorf("fig21 render broken:\n%s", out)
	}
}

func TestFig9Fig11Fig3Render(t *testing.T) {
	out := experiments.Fig9([]experiments.Fig9Point{{FreqMHz: 200, InvFreqNS: 5, AvgMS: 140}})
	if !strings.Contains(out, "140.00") {
		t.Errorf("fig9 render broken:\n%s", out)
	}
	out = experiments.Fig11(&experiments.Fig11Table{
		FreqMHz: []float64{200, 300},
		P95US:   [][]float64{{0, 700}, {710, 0}},
	})
	if !strings.Contains(out, "700") {
		t.Errorf("fig11 render broken:\n%s", out)
	}
	out = experiments.Fig3(&experiments.Fig3Series{
		JobIndex: []int{1, 2}, ActualMS: []float64{20, 21}, ExpectedMS: []float64{19, 20},
		LagCorrelation: 0.3,
	}, 5)
	if !strings.Contains(out, "+0.300") {
		t.Errorf("fig3 render broken:\n%s", out)
	}
}

func TestXPlatAndAblationRender(t *testing.T) {
	out := experiments.XPlat([]experiments.XPlatRow{{
		Benchmark: "sha", Relation: "same", Jaccard: 1,
		ARMFeatures: []string{"loop#1"}, X86Features: []string{"loop#1"},
	}})
	if !strings.Contains(out, "same") || !strings.Contains(out, "loop#1") {
		t.Errorf("xplat render broken:\n%s", out)
	}
	out = experiments.AblationMargin([]experiments.MarginPoint{{Margin: 0.1, EnergyPct: 52, MissPct: 0}})
	if !strings.Contains(out, "0.10") {
		t.Errorf("margin render broken:\n%s", out)
	}
	out = experiments.AblationSwitchTable([]experiments.SwitchTableResult{{Table: "p95", EnergyPct: 52, MissPct: 0}})
	if !strings.Contains(out, "p95") {
		t.Errorf("switch-table render broken:\n%s", out)
	}
	out = experiments.AblationSlice([]experiments.SliceAblationRow{{
		Benchmark: "sha", LassoStmts: 1, FullStmts: 2, LassoPredMS: 0.1, FullPredMS: 0.2,
	}})
	if !strings.Contains(out, "sha") {
		t.Errorf("slice render broken:\n%s", out)
	}
}

func TestExtensionRenderers(t *testing.T) {
	out := experiments.Placement([]experiments.PlacementRow{{
		Benchmark: "sha", KnownAhead: true,
		EnergyPct: map[string]float64{"sequential": 75, "pipelined": 75, "parallel": 75},
		MissPct:   map[string]float64{"sequential": 2, "pipelined": 2, "parallel": 2},
	}})
	if !strings.Contains(out, "sha") || !strings.Contains(out, "75.0") {
		t.Errorf("placement render broken:\n%s", out)
	}
	out = experiments.Batch([]experiments.BatchPoint{{K: 4, EnergyPct: 96.6, MissPct: 9}})
	if !strings.Contains(out, "96.6") {
		t.Errorf("batch render broken:\n%s", out)
	}
	out = experiments.Hetero([]experiments.HeteroPoint{{
		NormBudget: 0.5, A7EnergyPct: 100, A7MissPct: 100,
		BigEnergyPct: 218, BigMissPct: 1.3, A15Share: 1,
	}})
	if !strings.Contains(out, "218") || !strings.Contains(out, "100%") {
		t.Errorf("hetero render broken:\n%s", out)
	}
	out = experiments.Hints([]experiments.HintsRow{{
		Benchmark: "ldecode", BaseEnergyPct: 56, HintEnergyPct: 55,
		BaseMAEms: 4.4, HintMAEms: 3.3,
	}})
	if !strings.Contains(out, "ldecode") || !strings.Contains(out, "3.30ms") {
		t.Errorf("hints render broken:\n%s", out)
	}
	out = experiments.OverheadCap([]experiments.OverheadCapPoint{
		{CapMS: 0, PredictorMS: 10.3, Features: 4, EnergyPct: 48},
		{CapMS: 1, PredictorMS: 0.06, Features: 3, EnergyPct: 54},
	})
	if !strings.Contains(out, "none") || !strings.Contains(out, "0.06") {
		t.Errorf("overheadcap render broken:\n%s", out)
	}
	out = experiments.MultiTask([]experiments.MultiTaskRow{{
		Scenario: "prediction", EnergyPct: 31, MissPct: []float64{0, 2.25},
	}})
	if !strings.Contains(out, "31.0") || !strings.Contains(out, "2.25") {
		t.Errorf("multitask render broken:\n%s", out)
	}
	out = experiments.Quadratic([]experiments.QuadraticRow{{
		Benchmark: "sha", LinearMAEms: 3.4, QuadMAEms: 3.5,
		LinearEnergyPct: 70, QuadEnergyPct: 70,
	}})
	if !strings.Contains(out, "3.40ms") {
		t.Errorf("quadratic render broken:\n%s", out)
	}
	out = experiments.Baselines("sha", []experiments.BaselineRow{{Governor: "ondemand", EnergyPct: 89, MissPct: 8}})
	if !strings.Contains(out, "ondemand") || !strings.Contains(out, "89.0") {
		t.Errorf("baselines render broken:\n%s", out)
	}
}
