package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// One sim_predict pass simulates simJobs[app] jobs of each app in turn.
// ldecode has the cheap prediction slice and pocketsphinx the expensive
// one; the counts give each app about half of the pass's host time at
// the seed commit. A phase runs at least simMinPasses passes, so
// pocketsphinx keeps 1000 decisions and its p99 ten samples beyond it.
var simApps = []string{"ldecode", "pocketsphinx"}

var simJobs = map[string]int{
	"ldecode":      8800,
	"pocketsphinx": 250,
}

const simMinPasses = 4

// simGolden are the simulated energy and misses of one pass at
// defaultSeed. The simulator charges modelled predictor work, not host
// time, so they must repeat exactly on any host and any speed-up.
var simGolden = map[string]struct {
	energyJ float64
	misses  int
}{
	"ldecode":      {156.86086399638558, 0},
	"pocketsphinx": {279.77678736311094, 0},
}

type simApp struct {
	name string
	w    *workload.Workload
	ctl  *core.Controller
}

type simSetup struct {
	plat     *platform.Platform
	apps     []simApp
	switchMs float64
	buildSec map[string]float64
}

// newSimSetup measures the switch table once and trains both
// controllers on it, as dvfssim does.
func newSimSetup(seed int64) (*simSetup, error) {
	s := &simSetup{plat: platform.ODROIDXU3A7(), buildSec: map[string]float64{}}
	t0 := time.Now()
	sw := platform.MeasureSwitchTable(s.plat, 500, 0.95, seed+97)
	s.switchMs = float64(time.Since(t0)) / 1e6
	for _, name := range simApps {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		ctl, err := core.Build(w, core.Config{Plat: s.plat, Switch: sw, ProfileSeed: seed})
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
		}
		s.buildSec[name] = time.Since(t0).Seconds()
		s.apps = append(s.apps, simApp{name: name, w: w, ctl: ctl})
	}
	return s, nil
}

// timedGov is the prediction governor with its decisions timed. Untraced
// it times Controller.JobStart as one call. Traced it makes the same
// decision through the controller's public parts — Slice.Run, then
// PredictTrace — with a span around each, and also runs the full task
// program on the job's inputs (Job.PeekWork), which the simulator does
// internally where no span can reach.
type timedGov struct {
	*core.Controller
	app    string
	tr     *tracer
	decide []time.Duration
}

func (g *timedGov) JobStart(job *governor.Job, cur platform.Level) governor.Decision {
	if g.tr == nil {
		t0 := time.Now()
		d := g.Controller.JobStart(job, cur)
		g.decide = append(g.decide, time.Since(t0))
		return d
	}
	t0 := time.Now()
	id := g.tr.begin("core.job_start", g.app)
	d := g.decideTraced(job, cur)
	g.tr.end(id)
	g.decide = append(g.decide, time.Since(t0))
	id = g.tr.begin("taskir.run", g.app)
	job.PeekWork()
	g.tr.end(id)
	return d
}

// decideTraced is Controller.JobStart spelled out through its public
// parts, so each part can be timed.
func (g *timedGov) decideTraced(job *governor.Job, cur platform.Level) governor.Decision {
	c := g.Controller
	ftr := features.NewTrace()
	id := g.tr.begin("slicer.run", g.app)
	work, err := c.Slice.Run(job.Globals, job.Params, ftr)
	g.tr.end(id)
	if err != nil {
		return governor.Decision{Target: c.Plat.MaxLevel(), PredictedExecSec: math.NaN()}
	}
	predictorSec := c.Plat.JobTimeAt(work.CPU, work.MemSec, cur)
	id = g.tr.begin("core.predict_trace", g.app)
	p := c.PredictTrace(ftr, job.Params, job.RemainingBudgetSec, predictorSec, cur)
	g.tr.end(id)
	return governor.Decision{Target: p.Target, PredictorSec: p.PredictorSec, PredictedExecSec: p.PredictedExecSec}
}

// simOutcome is what one pass produced for one app.
type simOutcome struct {
	energyJ float64
	misses  int
}

type simPass struct {
	wall    time.Duration
	jobs    int
	outcome map[string]simOutcome
	decide  map[string][]time.Duration
	walls   map[string]time.Duration
	rss     float64 // peak RSS during the pass, MiB
}

// runSimPass simulates every app once under the timed governor.
func runSimPass(r *run, s *simSetup) (*simPass, error) {
	p := &simPass{outcome: map[string]simOutcome{}, decide: map[string][]time.Duration{}, walls: map[string]time.Duration{}}
	resetPeakRSS()
	defer func() { p.rss, _ = peakRSSMiB(0) }()
	for _, app := range s.apps {
		gov := &timedGov{Controller: app.ctl, app: app.name, tr: r.tr}
		n := simJobs[app.name]
		r.attempted += int64(n)
		id := r.tr.begin("sim.run", app.name)
		t0 := time.Now()
		res, err := sim.Run(app.w, gov, sim.Config{Plat: s.plat, Seed: r.seed, Jobs: n})
		p.walls[app.name] = time.Since(t0)
		p.wall += p.walls[app.name]
		r.tr.end(id)
		if err != nil {
			r.failed += int64(n)
			return nil, fmt.Errorf("simulating %s: %w", app.name, err)
		}
		p.jobs += n
		p.outcome[app.name] = simOutcome{energyJ: res.EnergyJ, misses: res.Misses}
		p.decide[app.name] = gov.decide
	}
	return p, nil
}

// simPhase runs passes until the phase budget is spent, and at least
// simMinPasses.
func simPhase(r *run, s *simSetup) ([]*simPass, error) {
	var passes []*simPass
	var spent time.Duration
	for len(passes) < simMinPasses || spent+spent/time.Duration(len(passes)) <= r.phaseBudget() {
		p, err := runSimPass(r, s)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		spent += p.wall
	}
	return passes, nil
}

func runSim(r *run) error {
	s, err := timeSetup(r, 5, func() (*simSetup, error) { return newSimSetup(trainSeed) })
	if err != nil {
		r.failed++
		return err
	}
	r.attempted += int64(5 * len(simApps))

	passes, err := simPhase(r, s)
	if err != nil {
		return err
	}
	rates := make([]float64, len(passes))
	rss := make([]float64, len(passes))
	ops := make([]dist, len(passes))
	for i, p := range passes {
		rates[i] = float64(p.jobs) / p.wall.Seconds()
		rss[i] = p.rss
		var all []time.Duration
		for _, app := range simApps {
			all = append(all, p.decide[app]...)
		}
		ops[i] = durDist(all, time.Millisecond)
	}
	if err := r.setOps(ops); err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = median(rss)
	r.e2e["work_per_s"] = median(rates)
	for i, p := range passes {
		fmt.Printf("sim: pass %d: ldecode %d jobs in %.2f s, pocketsphinx %d jobs in %.2f s\n", i,
			simJobs["ldecode"], p.walls["ldecode"].Seconds(), simJobs["pocketsphinx"], p.walls["pocketsphinx"].Seconds())
	}

	if !r.traced {
		checkSimOutcomes(r, passes)
		return nil
	}
	r.layer["sim.jobs_per_s"] = r.e2e["work_per_s"]
	for _, app := range simApps {
		var ds []time.Duration
		for _, p := range passes {
			ds = append(ds, p.decide[app]...)
		}
		d := durDist(ds, time.Microsecond)
		r.layer["decide."+app+".p50_us"], _ = d.pct(0.50)
		r.layer["decide."+app+".p99_us"], _ = d.pct(0.99)
		r.layer["core.build_s."+app] = s.buildSec[app]
	}
	r.layer["platform.switch_table_ms"] = s.switchMs

	stop, err := r.startTrace()
	if err != nil {
		return err
	}
	traced, err := simPhase(r, s)
	stop()
	if err != nil {
		return err
	}
	// The traced decision path must reproduce the untraced one exactly.
	checkSimOutcomes(r, append(passes, traced...))
	tr := r.tr
	for _, app := range simApps {
		d := durDist(tr.durations("slicer.run", app), time.Microsecond)
		r.layer["slicer.run_us."+app+".p50"], _ = d.pct(0.50)
		r.layer["slicer.run_us."+app+".p99"], _ = d.pct(0.99)
		r.layer["taskir.run_us."+app+".p50"], _ = durDist(tr.durations("taskir.run", app), time.Microsecond).pct(0.50)
	}
	decide := tr.total("core.job_start", "*")
	wall := tr.total("sim.run", "*")
	side := tr.total("taskir.run", "*")
	r.layer["slicer.decide_frac"] = float64(tr.total("slicer.run", "*")) / float64(decide)
	// The simulator interprets each job's program once itself; the
	// traced phase ran it a second time (taskir.run) to time it. Take
	// the second run out of the wall time, and count the simulator's own
	// run as the same length.
	r.layer["sim.other_frac"] = float64(wall-decide-2*side) / float64(wall-side)
	pt := durDist(tr.durations("core.predict_trace", "*"), time.Nanosecond)
	r.layer["core.predict_trace_ns.p50"], _ = pt.pct(0.50)
	r.layer["core.predict_trace_ns.p99"], _ = pt.pct(0.99)
	jobs := 0
	for _, p := range traced {
		jobs += p.jobs
	}
	tracedRate := float64(jobs) / (wall - side).Seconds()
	r.layer["tracing.overhead_frac"] = r.e2e["work_per_s"]/tracedRate - 1
	return nil
}

// checkSimOutcomes requires every pass to reproduce the first one
// exactly, and the first to match the golden values at defaultSeed.
func checkSimOutcomes(r *run, passes []*simPass) {
	first := passes[0]
	for _, app := range simApps {
		o := first.outcome[app]
		same := true
		for _, p := range passes[1:] {
			same = same && p.outcome[app] == o
		}
		r.check("sim.repeatable."+app, same, "%d passes, energy %.9g J, misses %d", len(passes), o.energyJ, o.misses)
		r.check("sim.sane."+app, o.energyJ > 0 && !math.IsInf(o.energyJ, 0) && o.misses >= 0 && o.misses <= simJobs[app],
			"energy %.9g J, misses %d of %d", o.energyJ, o.misses, simJobs[app])
		if r.seed == defaultSeed {
			g := simGolden[app]
			r.check("sim.golden."+app, o.energyJ == g.energyJ && o.misses == g.misses,
				"energy %.17g J (golden %.17g), misses %d (golden %d)", o.energyJ, g.energyJ, o.misses, g.misses)
		}
	}
}
