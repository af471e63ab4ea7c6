package experiments

import (
	"strconv"

	"repro/internal/workload"
)

// The exported Run* experiments are defined here, each over its run*
// body beside the rows it returns, so a suite that keeps results runs
// every experiment once.

// memo returns the result of run stored under key, running it only on
// a suite's first request when the suite keeps results (a nil results
// map, NewSuite's default, runs every request afresh). Every
// experiment is a pure function of the suite's seed and its
// arguments, so a kept result is the one a rerun would produce;
// callers treat results as read-only.
func memo[T any](s *Suite, key string, run func() (T, error)) (T, error) {
	if s.results == nil {
		return run()
	}
	if v, ok := s.results[key]; ok {
		return v.(T), nil
	}
	v, err := run()
	if err == nil {
		s.results[key] = v
	}
	return v, err
}

// RunTable2 measures min/avg/max job times at maximum frequency for
// every benchmark (Table 2).
func (s *Suite) RunTable2() ([]Table2Row, error) { return memo(s, "table2", s.runTable2) }

// RunFig2 captures ldecode's per-frame time series.
func (s *Suite) RunFig2(jobs int) (*Fig2Series, error) {
	return memo(s, "fig2/"+strconv.Itoa(jobs), func() (*Fig2Series, error) { return s.runFig2(jobs) })
}

// RunFig3 reproduces the paper's setup: job execution times at
// maximum frequency, against the execution time a PID predictor
// expects for each job from the history of the previous ones.
func (s *Suite) RunFig3(jobs int) (*Fig3Series, error) {
	return memo(s, "fig3/"+strconv.Itoa(jobs), func() (*Fig3Series, error) { return s.runFig3(jobs) })
}

// RunFig9 measures ldecode's average job time at every DVFS level,
// verifying the linear t–1/f relationship the DVFS model assumes.
func (s *Suite) RunFig9() ([]Fig9Point, error) { return memo(s, "fig9", s.runFig9) }

// RunFig15 evaluates all benchmarks under all four governors at the
// paper's budgets (50 ms; 4 s for pocketsphinx).
func (s *Suite) RunFig15() ([]Fig15Row, error) { return memo(s, "fig15", s.runFig15) }

// RunFig16 sweeps the time budget from 0.6 to 1.4 of the maximum job
// time for each benchmark.
func (s *Suite) RunFig16(w *workload.Workload) (*Fig16Sweep, error) {
	return memo(s, "fig16/"+w.Name, func() (*Fig16Sweep, error) { return s.runFig16(w) })
}

// RunFig17 measures average predictor and switch times per benchmark.
func (s *Suite) RunFig17() ([]Fig17Row, error) { return memo(s, "fig17", s.runFig17) }

// RunFig18 measures the overhead-removal ladder.
func (s *Suite) RunFig18() ([]Fig18Row, error) { return memo(s, "fig18", s.runFig18) }

// RunFig19 collects prediction errors for the seven millisecond-scale
// benchmarks (the paper reports pocketsphinx's second-scale errors in
// text, not in the plot; RunFig19Pocketsphinx covers it).
func (s *Suite) RunFig19() ([]Fig19Row, error) { return memo(s, "fig19", s.runFig19) }

// RunFig19Pocketsphinx returns the speech recognizer's error summary,
// reported separately in the paper's text (§5.3).
func (s *Suite) RunFig19Pocketsphinx() (*Fig19Row, error) {
	return memo(s, "fig19pocketsphinx", s.runFig19Pocketsphinx)
}

// RunFig20 sweeps the under-prediction penalty weight α for ldecode,
// retraining the controller at each setting.
func (s *Suite) RunFig20() ([]Fig20Point, error) { return memo(s, "fig20", s.runFig20) }

// RunFig21 measures the idling study.
func (s *Suite) RunFig21() ([]Fig21Row, error) { return memo(s, "fig21", s.runFig21) }

// RunXPlat retrains every benchmark's models on the x86 platform model
// and compares selected feature sets with the ARM ones.
func (s *Suite) RunXPlat() ([]XPlatRow, error) { return memo(s, "xplat", s.runXPlat) }

// RunAblationMargin sweeps the safety margin for ldecode. The paper
// (§3.4): "A higher margin can decrease deadline misses while a lower
// margin can improve the energy savings."
func (s *Suite) RunAblationMargin() ([]MarginPoint, error) {
	return memo(s, "ablationmargin", s.runAblationMargin)
}

// RunAblationSwitchTable evaluates ldecode with the selector fed mean
// switch times instead of the paper's 95th percentile.
func (s *Suite) RunAblationSwitchTable() ([]SwitchTableResult, error) {
	return memo(s, "ablationswitchtable", s.runAblationSwitchTable)
}

// RunAblationSlice measures what Lasso feature selection buys in
// predictor overhead across all benchmarks.
func (s *Suite) RunAblationSlice() ([]SliceAblationRow, error) {
	return memo(s, "ablationslice", s.runAblationSlice)
}

// RunPlacement evaluates sequential vs. pipelined vs. parallel
// predictor execution. Workloads whose inputs are not known one job
// ahead (interactive input) cannot pipeline — the simulator falls back
// to sequential for them, as the paper prescribes.
func (s *Suite) RunPlacement() ([]PlacementRow, error) { return memo(s, "placement", s.runPlacement) }

// RunBatch evaluates batched prediction (decide every K jobs) for 2048
// at its tightest budget — the regime where the paper notes predictor
// and switch overheads outweigh the savings (§5.2: "normalized energy
// usage over 100%"; §7: amortize by predicting several jobs at once).
func (s *Suite) RunBatch() ([]BatchPoint, error) { return memo(s, "batch", s.runBatch) }

// RunHetero exercises §3.5's heterogeneous-cores extension on ldecode:
// below normalized budget 1.0 the A7 cannot make every deadline at any
// frequency, while the big.LITTLE operating-point grid lets the same
// unchanged prediction logic migrate heavy frames to the A15.
func (s *Suite) RunHetero() ([]HeteroPoint, error) { return memo(s, "hetero", s.runHetero) }

// RunHints evaluates hint features on the three benchmarks whose
// execution time has a component no control-flow feature can see
// (ldecode's residual coefficients, pocketsphinx's spectral energy,
// rijndael's plaintext structure).
func (s *Suite) RunHints() ([]HintsRow, error) { return memo(s, "hints", s.runHints) }

// RunOverheadCap sweeps the predictor-time cap for pocketsphinx.
func (s *Suite) RunOverheadCap() ([]OverheadCapPoint, error) {
	return memo(s, "overheadcap", s.runOverheadCap)
}

// RunMultiTask measures the two-task scenario.
func (s *Suite) RunMultiTask() ([]MultiTaskRow, error) { return memo(s, "multitask", s.runMultiTask) }

// RunQuadratic evaluates quadratic feature expansion on three
// benchmarks spanning linear (sha), mildly nonlinear (ldecode), and
// dispatch-driven (uzbl) time structure.
func (s *Suite) RunQuadratic() ([]QuadraticRow, error) { return memo(s, "quadratic", s.runQuadratic) }

// RunBaselines evaluates every governor on one benchmark at the paper
// budget, normalized to the performance governor.
func (s *Suite) RunBaselines(name string) ([]BaselineRow, error) {
	return memo(s, "baselines/"+name, func() ([]BaselineRow, error) { return s.runBaselines(name) })
}

// RunStatic evaluates average-sized and worst-case-sized static levels
// against the per-job predictive controller.
func (s *Suite) RunStatic() ([]StaticRow, error) { return memo(s, "static", s.runStatic) }

// RunA15Trends evaluates the paper's four governors on the A15 cluster
// for ldecode at two budgets. At the paper's 50 ms even the cluster's
// lowest operating point meets every frame, so all deadline-aware
// governors saturate there and the trends transfer trivially
// (prediction best or tied, no misses). A tight 20 ms budget stresses
// the cluster's range and shows the conservatism trade on the big
// core's steep V² curve: prediction alone stays miss-free, paying for
// it with margin headroom, while the reactive PID undercuts it by
// missing deadlines.
func (s *Suite) RunA15Trends() ([]A15Row, error) { return memo(s, "a15trends", s.runA15Trends) }
