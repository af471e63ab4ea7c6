package experiments

import (
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table2Row reproduces one row of Table 2: job-time statistics at
// maximum frequency.
type Table2Row struct {
	Benchmark, Desc, Task        string
	MinMS, AvgMS, MaxMS          float64
	PaperMin, PaperAvg, PaperMax float64
}

func (s *Suite) runTable2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, w := range workload.All() {
		r, err := s.runOne("performance", w, sim.Config{})
		if err != nil {
			return nil, err
		}
		sm := stats.Summarize(r.ExecTimes())
		rows = append(rows, Table2Row{
			Benchmark: w.Name, Desc: w.Desc, Task: w.TaskDesc,
			MinMS: sm.Min * 1e3, AvgMS: sm.Mean * 1e3, MaxMS: sm.Max * 1e3,
			PaperMin: w.RefMinMS, PaperAvg: w.RefAvgMS, PaperMax: w.RefMaxMS,
		})
	}
	return rows, nil
}

// Fig2Series reproduces Fig 2: per-job (frame) execution time for
// ldecode at maximum frequency.
type Fig2Series struct {
	JobIndex []int
	TimeMS   []float64
}

func (s *Suite) runFig2(jobs int) (*Fig2Series, error) {
	w := workload.LDecode()
	r, err := s.runOne("performance", w, sim.Config{Jobs: jobs})
	if err != nil {
		return nil, err
	}
	out := &Fig2Series{}
	for _, rec := range r.Records {
		out.JobIndex = append(out.JobIndex, rec.Index)
		out.TimeMS = append(out.TimeMS, rec.ExecSec*1e3)
	}
	return out, nil
}

// Fig3Series reproduces Fig 3: actual job times against the execution
// time a PID controller expected, showing the reactive lag.
type Fig3Series struct {
	JobIndex   []int
	ActualMS   []float64
	ExpectedMS []float64
	// LagCorrelation is corr(expected[i], actual[i-1]) minus
	// corr(expected[i], actual[i]); positive means the controller
	// tracks the previous job better than the current one — the lag.
	LagCorrelation float64
}

func (s *Suite) runFig3(jobs int) (*Fig3Series, error) {
	w := workload.LDecode()
	r, err := s.runOne("performance", w, sim.Config{Jobs: jobs})
	if err != nil {
		return nil, err
	}
	out := &Fig3Series{}
	var exp, act, actPrev []float64
	// Standalone PID filter over the series (the control law of the
	// pid governor, without the DVFS feedback loop).
	const kp, ki, kd = 0.5, 0.04, 0.1
	est := r.Records[0].ExecSec
	integral, prevErr := 0.0, 0.0
	for i := 1; i < len(r.Records); i++ {
		rec := r.Records[i]
		out.JobIndex = append(out.JobIndex, rec.Index)
		out.ActualMS = append(out.ActualMS, rec.ExecSec*1e3)
		out.ExpectedMS = append(out.ExpectedMS, est*1e3)
		exp = append(exp, est)
		act = append(act, rec.ExecSec)
		actPrev = append(actPrev, r.Records[i-1].ExecSec)
		e := rec.ExecSec - est
		integral += e
		est += kp*e + ki*integral + kd*(e-prevErr)
		prevErr = e
	}
	out.LagCorrelation = corr(exp, actPrev) - corr(exp, act)
	return out, nil
}

func corr(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	sa, sb := stats.Summarize(a), stats.Summarize(b)
	if sa.Std == 0 || sb.Std == 0 {
		return 0
	}
	s := 0.0
	for i := range a {
		s += (a[i] - sa.Mean) * (b[i] - sb.Mean)
	}
	return s / float64(n) / (sa.Std * sb.Std)
}

// Fig9Point is one point of Fig 9: average job time versus 1/f.
type Fig9Point struct {
	FreqMHz   float64
	InvFreqNS float64 // 1/f in nanoseconds, the paper's x-axis
	AvgMS     float64
}

func (s *Suite) runFig9() ([]Fig9Point, error) {
	w := workload.LDecode()
	var pts []Fig9Point
	for idx := range s.Plat.Levels {
		lvl := s.Plat.Levels[idx]
		g := &governor.Fixed{Level: lvl}
		cfg := sim.Config{Plat: s.Plat, Seed: s.Seed + 7, Jobs: 120,
			// Long budget so queueing does not clip slow levels.
			BudgetSec: 1.0}
		r, err := sim.Run(w, g, cfg)
		if err != nil {
			return nil, err
		}
		pts = append(pts, Fig9Point{
			FreqMHz:   lvl.FreqHz / 1e6,
			InvFreqNS: 1e9 / lvl.FreqHz,
			AvgMS:     stats.Mean(r.ExecTimes()) * 1e3,
		})
	}
	return pts, nil
}

// Fig11Table reproduces Fig 11: the 95th-percentile DVFS switching
// time for every start/end frequency pair.
type Fig11Table struct {
	FreqMHz []float64
	// P95US[from][to] is in microseconds.
	P95US [][]float64
}

// RunFig11 returns the measured switch-time matrix.
func (s *Suite) RunFig11() *Fig11Table {
	out := &Fig11Table{}
	n := s.Plat.NumLevels()
	for _, l := range s.Plat.Levels {
		out.FreqMHz = append(out.FreqMHz, l.FreqHz/1e6)
	}
	out.P95US = make([][]float64, n)
	for i := 0; i < n; i++ {
		out.P95US[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			out.P95US[i][j] = s.Switch.Lookup(i, j) * 1e6
		}
	}
	return out
}

// StaticRow quantifies §2.2's motivating argument for ldecode: a
// single DVFS level sized for the average execution time misses
// deadlines; one sized for the worst case saves almost nothing.
type StaticRow struct {
	Policy    string
	LevelMHz  float64
	EnergyPct float64
	MissPct   float64
}

func (s *Suite) runStatic() ([]StaticRow, error) {
	w := workload.LDecode()
	perf, err := s.runOne("performance", w, sim.Config{})
	if err != nil {
		return nil, err
	}
	// Characterize job times at fmax (noise-free) to size the levels.
	probe, err := s.runOne("performance", w, sim.Config{NoiseSigma: -1})
	if err != nil {
		return nil, err
	}
	sm := stats.Summarize(probe.ExecTimes())
	budget := w.DefaultBudgetSec
	fmax := s.Plat.MaxLevel().EffFreqHz()
	// A job of duration t at fmax needs f ≥ t·fmax/budget (pure-CPU
	// approximation, as a §2.2-style back-of-envelope would do).
	avgLevel := s.Plat.LevelAtOrAbove(sm.Mean * fmax / budget)
	worstLevel := s.Plat.LevelAtOrAbove(sm.Max * fmax / budget)

	var rows []StaticRow
	for _, c := range []struct {
		name  string
		level platform.Level
	}{
		{"static-average", avgLevel},
		{"static-worstcase", worstLevel},
	} {
		r, err := sim.Run(w, &governor.Fixed{Level: c.level},
			sim.Config{Plat: s.Plat, Seed: s.Seed + 7})
		if err != nil {
			return nil, err
		}
		rows = append(rows, StaticRow{
			Policy:    c.name,
			LevelMHz:  c.level.FreqHz / 1e6,
			EnergyPct: 100 * r.EnergyJ / perf.EnergyJ,
			MissPct:   100 * r.MissRate(),
		})
	}
	pred, err := s.runOne("prediction", w, sim.Config{})
	if err != nil {
		return nil, err
	}
	rows = append(rows, StaticRow{
		Policy:    "prediction",
		EnergyPct: 100 * pred.EnergyJ / perf.EnergyJ,
		MissPct:   100 * pred.MissRate(),
	})
	return rows, nil
}

// A15Row is one governor's result on the standalone A15 (big) cluster;
// the paper reports "similar trends when running on the A15 core"
// (§5.1) without a figure.
type A15Row struct {
	Governor  string
	BudgetMS  float64
	EnergyPct float64
	MissPct   float64
}

func (s *Suite) runA15Trends() ([]A15Row, error) {
	a15 := NewSuiteOn(platform.ODROIDXU3A15(), s.Seed)
	w := workload.LDecode()
	var rows []A15Row
	for _, budget := range []float64{0.050, 0.020} {
		var perfEnergy float64
		for _, g := range GovernorNames {
			r, err := a15.runOne(g, w, sim.Config{BudgetSec: budget})
			if err != nil {
				return nil, err
			}
			if g == "performance" {
				perfEnergy = r.EnergyJ
			}
			rows = append(rows, A15Row{
				Governor:  g,
				BudgetMS:  budget * 1e3,
				EnergyPct: 100 * r.EnergyJ / perfEnergy,
				MissPct:   100 * r.MissRate(),
			})
		}
	}
	return rows, nil
}
