package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

// One telemetry pass replays dvfsd's telemetry loop on a synthetic
// clock: a scrape tick every simulated second into a fresh on-disk
// store, the alert rules evaluated after each tick, and the dashboard's
// history queries every telemetryRefresh ticks. Set-up opens the store
// and fills the first telemetryWarm seconds of history without rule
// evaluation or queries.
const (
	telemetryWarm    = 600
	telemetryTicks   = 720
	telemetryRefresh = 30
	// The predict route carries telemetryRate requests per second.
	telemetryRate = 40
	// The batch route carries telemetryBatchRate requests per second from
	// the first measured tick on; during the excursion they are slow,
	// enough to lift that route's cumulative p95 past request_p95_slow's
	// 5 ms threshold, and the route's later traffic dilutes them until
	// the rule resolves.
	telemetryBatchRate = 4
	excursionFrom      = 60
	excursionTo        = 75
)

// telemetryEpoch is the synthetic clock's start.
var telemetryEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// dashWindows and dashCharts are /debug/dash's history windows and the
// panels whose metrics this registry exports.
var dashWindows = []struct {
	name string
	d    time.Duration
}{{"15m", 15 * time.Minute}, {"1h", time.Hour}, {"6h", 6 * time.Hour}}

var dashCharts = []tsdb.Query{
	{Metric: "dvfsd_requests_total", Agg: tsdb.AggRate},
	{Metric: "dvfsd_request_duration_seconds", Labels: []tsdb.Label{{Name: "quantile", Value: "0.95"}}},
	{Metric: "dvfsd_decisions_total", Agg: tsdb.AggRate},
	{Metric: "go_goroutines"},
	{Metric: "go_heap_bytes"},
	{Metric: "go_gc_pause_seconds", Labels: []tsdb.Label{{Name: "quantile", Value: "0.99"}}},
	{Metric: "go_sched_latency_seconds", Labels: []tsdb.Label{{Name: "quantile", Value: "0.99"}}},
}

// telemetryGolden is one pass's outcome at defaultSeed.
var telemetryGolden = telemetryOutcome{
	series:      128,
	samples:     165119,
	bytesPerSmp: 0.8109060738013191,
	transitions: "request_p95_slow:dvfsd_request_duration_seconds{quantile=0.95,route=/v1/predict/batch}:pending>firing@702, " +
		"request_p95_slow:dvfsd_request_duration_seconds{quantile=0.95,route=/v1/predict/batch}:firing>resolved@974",
}

// telemetryOutcome is what a pass must reproduce exactly.
type telemetryOutcome struct {
	series      int
	samples     int64
	bytesPerSmp float64
	transitions string // "rule:series:from>to@seconds" joined by ", "
}

// recorder is an alert notifier that keeps the transitions it is sent.
type recorder struct{ ts []alert.Transition }

func (n *recorder) Notify(t alert.Transition) { n.ts = append(n.ts, t) }
func (n *recorder) Close() error              { return nil }

// synthTraffic feeds the serving registry like dvfsd's request path,
// and sets the runtime gauges the runtime collector would, from a
// seeded generator rather than the live process, so every pass stores
// the same samples.
type synthTraffic struct {
	m       *serve.Metrics
	rng     *rand.Rand
	models  []string
	heap    *obs.Gauge
	gorout  *obs.Gauge
	gcPause *obs.GaugeVec
	sched   *obs.GaugeVec
}

func newSynthTraffic(seed int64) *synthTraffic {
	m := serve.NewMetrics()
	reg := m.Registry()
	t := &synthTraffic{
		m:       m,
		rng:     rand.New(rand.NewSource(seed)),
		heap:    reg.Gauge("go_heap_bytes", "Bytes of live heap objects (synthetic)."),
		gorout:  reg.Gauge("go_goroutines", "Live goroutines (synthetic)."),
		gcPause: reg.GaugeVec("go_gc_pause_seconds", "GC pause quantiles (synthetic).", "quantile"),
		sched:   reg.GaugeVec("go_sched_latency_seconds", "Scheduling latency quantiles (synthetic).", "quantile"),
	}
	for _, w := range workload.All() {
		t.models = append(t.models, w.Name)
	}
	return t
}

// second generates simulated second k's traffic.
func (t *synthTraffic) second(k int, measured bool) {
	for i := 0; i < telemetryRate; i++ {
		code := 200
		if t.rng.Intn(500) == 0 {
			code = 400
		}
		t.m.ObserveRequest("/v1/predict", code, 0.0004*math.Exp(0.3*t.rng.NormFloat64()))
		if code == 200 {
			t.m.ObserveDecision(t.models[t.rng.Intn(len(t.models))], t.rng.Intn(13))
		}
	}
	if measured {
		slow := k >= excursionFrom && k < excursionTo
		for i := 0; i < telemetryBatchRate; i++ {
			lat := 0.0012 * math.Exp(0.3*t.rng.NormFloat64())
			if slow {
				lat *= 15
			}
			t.m.ObserveRequest("/v1/predict/batch", 200, lat)
		}
	}
	t.heap.Set(float64(48<<20 + t.rng.Intn(8<<20)))
	t.gorout.Set(float64(14 + t.rng.Intn(4)))
	t.gcPause.With("0.99").Set(0.0002 + 0.0001*t.rng.Float64())
	t.sched.With("0.99").Set(0.00005 + 0.00005*t.rng.Float64())
}

// telemetryRig is one pass's state after set-up.
type telemetryRig struct {
	dir     string
	store   *tsdb.Store
	traffic *synthTraffic
	engine  *alert.Engine
	notes   *recorder
	scraper *tsdb.Scraper
}

// newTelemetryRig opens a store in a fresh directory, wires the scraper
// and the alert engine (builtin rules plus examples/alerts.rules.json)
// as dvfsd does, and fills the warm-up history.
func newTelemetryRig(r *run) (*telemetryRig, error) {
	dir, err := os.MkdirTemp(r.workDir, "tsdb-")
	if err != nil {
		return nil, err
	}
	store, err := tsdb.Open(tsdb.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	rules := alert.BuiltinRules(alert.BuiltinOptions{Scrape: time.Second})
	fileRules, err := alert.LoadRules(filepath.Join(r.root, "examples", "alerts.rules.json"))
	if err != nil {
		store.Close()
		return nil, err
	}
	notes := &recorder{}
	engine, err := alert.New(alert.Config{Querier: store, Rules: append(rules, fileRules...), Notifiers: []alert.Notifier{notes}})
	if err != nil {
		store.Close()
		return nil, err
	}
	rig := &telemetryRig{dir: dir, store: store, traffic: newSynthTraffic(r.seed), engine: engine, notes: notes}
	rig.scraper = tsdb.NewScraper(store, rig.traffic.m.Registry(), time.Second, nil)
	for k := 0; k < telemetryWarm; k++ {
		rig.traffic.second(k, false)
		rig.scraper.Tick(telemetryEpoch.Add(time.Duration(k) * time.Second))
	}
	return rig, nil
}

// telemetryPass is one pass's measurements.
type telemetryPass struct {
	wall    time.Duration
	queries []time.Duration
	out     telemetryOutcome
	qerrs   int
	// excursion is whether request_p95_slow fired and later resolved.
	excursion bool
	notified  int     // alert transitions the notifier received
	rss       float64 // peak RSS of the pass and its set-up, MiB
}

// runTelemetryPass runs the measured ticks and closes the store. The
// traced variant times the registry scrape on its own (a second scrape
// per tick, outside the tick span), the tick, the rule evaluation
// inside the tick, and each query.
func runTelemetryPass(r *run, rig *telemetryRig) (*telemetryPass, error) {
	p := &telemetryPass{}
	tr := r.tr
	var buf []obs.ScrapeSample
	rig.scraper.After = func(now time.Time) {
		id := tr.begin("alert.eval", "")
		rig.engine.Eval(now)
		tr.end(id)
	}
	t0 := time.Now()
	for k := telemetryWarm; k < telemetryWarm+telemetryTicks; k++ {
		now := telemetryEpoch.Add(time.Duration(k) * time.Second)
		rig.traffic.second(k-telemetryWarm, true)
		if tr != nil {
			id := tr.begin("obs.registry_scrape", "")
			buf = rig.traffic.m.Registry().Scrape(buf[:0])
			tr.end(id)
		}
		id := tr.begin("tsdb.tick", "")
		rig.scraper.Tick(now)
		tr.end(id)
		r.attempted += 2 // the scrape tick and the rule evaluation
		if (k-telemetryWarm+1)%telemetryRefresh != 0 {
			continue
		}
		for _, w := range dashWindows {
			step := w.d / 240
			for _, q := range dashCharts {
				q.FromMs, q.ToMs, q.StepMs = now.Add(-w.d).UnixMilli(), now.UnixMilli(), step.Milliseconds()
				id := tr.begin("tsdb.query", w.name)
				q0 := time.Now()
				_, err := rig.store.Query(q)
				p.queries = append(p.queries, time.Since(q0))
				tr.end(id)
				r.attempted++
				if err != nil {
					p.qerrs++
				}
			}
		}
	}
	// Closing seals and fsyncs every head chunk, as dvfsd's shutdown
	// does; the pass's wall time includes it.
	id := tr.begin("tsdb.close", "")
	err := rig.store.Close()
	tr.end(id)
	p.wall = time.Since(t0)
	rig.engine.Close()
	os.RemoveAll(rig.dir)
	if err != nil {
		return nil, fmt.Errorf("closing store: %w", err)
	}
	snap := rig.engine.Snapshot()
	p.qerrs += int(snap.QueryErrors)
	r.failed += int64(p.qerrs)
	st := rig.store.Stats()
	fired := false
	var ts []string
	for _, t := range rig.notes.ts {
		if t.Rule == "request_p95_slow" && t.To == alert.StateFiring {
			fired = true
		}
		if fired && t.Rule == "request_p95_slow" && t.To == alert.StateResolved {
			p.excursion = true
		}
		ts = append(ts, fmt.Sprintf("%s:%s:%s>%s@%d", t.Rule, t.Series, t.From, t.To, (t.TimeMs-telemetryEpoch.UnixMilli())/1000))
	}
	p.out = telemetryOutcome{series: st.Series, samples: st.Samples, bytesPerSmp: st.BytesPerSamp, transitions: strings.Join(ts, ", ")}
	p.notified = len(ts)
	return p, nil
}

// telemetryPhase runs set-up plus a pass until budget is spent (at least
// one pass); every pass's set-up counts toward setup_s.
func telemetryPhase(r *run, budget time.Duration) ([]*telemetryPass, error) {
	var passes []*telemetryPass
	t0 := time.Now()
	for len(passes) == 0 || time.Since(t0)+time.Since(t0)/time.Duration(len(passes)) <= budget {
		resetPeakRSS()
		rig, err := timeSetup(r, 1, func() (*telemetryRig, error) { return newTelemetryRig(r) })
		if err != nil {
			r.failed++
			return nil, err
		}
		r.attempted++
		p, err := runTelemetryPass(r, rig)
		if err != nil {
			return nil, err
		}
		if p.rss, err = peakRSSMiB(0); err != nil {
			return nil, err
		}
		passes = append(passes, p)
		// Free the finished pass's store before the next set-up, so the
		// next pass's peak RSS is its own.
		runtime.GC()
	}
	return passes, nil
}

func runTelemetry(r *run) error {
	passes, err := telemetryPhase(r, r.phaseBudget())
	if err != nil {
		return err
	}
	rates := make([]float64, len(passes))
	rss := make([]float64, len(passes))
	ops := make([]dist, len(passes))
	var queries []time.Duration
	for i, p := range passes {
		rates[i] = telemetryTicks / p.wall.Seconds()
		rss[i] = p.rss
		ops[i] = durDist(p.queries, time.Millisecond)
		queries = append(queries, p.queries...)
	}
	if err := r.setOps(ops); err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = median(rss)
	r.e2e["work_per_s"] = median(rates)
	first := passes[0].out
	fmt.Printf("telemetry: %d passes of %d ticks (%.0f ticks/s each), %d queries; %d series, %d samples, %.4f B/sample\n",
		len(passes), telemetryTicks, rates, len(queries), first.series, first.samples, first.bytesPerSmp)
	fmt.Printf("telemetry: alert transitions: %s\n", first.transitions)

	if !r.traced {
		checkTelemetry(r, passes)
		return nil
	}
	q := durDist(queries, time.Millisecond)
	r.layer["telemetry.ticks_per_s"] = r.e2e["work_per_s"]
	r.layer["query.p50_ms"], _ = q.pct(0.50)
	r.layer["query.p99_ms"], _ = q.pct(0.99)
	r.layer["tsdb.bytes_per_sample"] = first.bytesPerSmp
	r.layer["tsdb.series"] = float64(first.series)
	r.layer["tsdb.samples"] = float64(first.samples)
	r.layer["alert.transitions"] = float64(passes[0].notified)

	stop, err := r.startTrace()
	if err != nil {
		return err
	}
	traced, err := telemetryPhase(r, r.phaseBudget())
	stop()
	if err != nil {
		return err
	}
	checkTelemetry(r, append(passes, traced...))
	tr := r.tr
	r.layer["obs.registry_scrape_us.p50"], _ = durDist(tr.durations("obs.registry_scrape", "*"), time.Microsecond).pct(0.50)
	// Tick spans contain the rule evaluation (the scraper's After hook);
	// the tick's own cost is the difference.
	ticks := tr.durations("tsdb.tick", "*")
	evals := tr.durations("alert.eval", "*")
	own := make([]time.Duration, len(ticks))
	for i := range ticks {
		own[i] = ticks[i] - evals[i]
	}
	td := durDist(own, time.Microsecond)
	r.layer["tsdb.tick_us.p50"], _ = td.pct(0.50)
	r.layer["tsdb.tick_us.p99"], _ = td.pct(0.99)
	ed := durDist(evals, time.Microsecond)
	r.layer["alert.eval_us.p50"], _ = ed.pct(0.50)
	r.layer["alert.eval_us.p99"], _ = ed.pct(0.99)
	for _, w := range dashWindows {
		r.layer["tsdb.query_us."+w.name+".p50"], _ = durDist(tr.durations("tsdb.query", w.name), time.Microsecond).pct(0.50)
	}
	r.layer["tsdb.close_ms"] = median(durSeconds(tr.durations("tsdb.close", "*"))) * 1e3
	var walls []float64
	for _, p := range traced {
		walls = append(walls, p.wall.Seconds())
	}
	// The traced passes also scraped the registry a second time per tick.
	scrapeSec := tr.total("obs.registry_scrape", "*").Seconds() / float64(len(traced))
	r.layer["tracing.overhead_frac"] = r.e2e["work_per_s"]/(telemetryTicks/(median(walls)-scrapeSec)) - 1
	return nil
}

// checkTelemetry requires every pass to reproduce the first, the first
// to match the golden outcome at defaultSeed, the scripted excursion to
// fire request_p95_slow and resolve it, and no query to fail.
func checkTelemetry(r *run, passes []*telemetryPass) {
	first := passes[0]
	same := true
	qerrs := 0
	for _, p := range passes {
		same = same && p.out == first.out
		qerrs += p.qerrs
	}
	r.check("telemetry.repeatable", same, "%d passes, %d samples, %.6f B/sample", len(passes), first.out.samples, first.out.bytesPerSmp)
	r.check("telemetry.query_errors", qerrs == 0, "%d query or rule-evaluation errors", qerrs)
	r.check("telemetry.excursion_alert", first.excursion, "request_p95_slow must fire and resolve; transitions: %s", first.out.transitions)
	if r.seed == defaultSeed {
		r.check("telemetry.golden", first.out == telemetryGolden, "got %+v, golden %+v", first.out, telemetryGolden)
	}
}
