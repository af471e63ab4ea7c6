package tsdb

import (
	"math"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestScraperTickStoresEveryFamily(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.CounterVec("jobs_total", "jobs", "route")
	g := reg.Gauge("level", "level")
	h := reg.Histogram("exec_seconds", "exec", obs.LogLinearBuckets(1e-4, 10, 5))

	s := memStore(t, Options{Retention: -1})
	sc := NewScraper(s, reg, time.Second, nil)

	ctr.With("a").Inc()
	g.Set(3)
	h.Observe(0.02)
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sc.Tick(base)
	ctr.With("a").Inc()
	ctr.With("b").Inc()
	g.Set(4)
	sc.Tick(base.Add(5 * time.Second))

	list := s.SeriesList()
	want := map[string]bool{
		"exec_seconds_count":         false,
		"exec_seconds_sum":           false,
		"exec_seconds{quantile=0.5}": false,
		"jobs_total{route=a}":        false,
		"jobs_total{route=b}":        false,
		"level":                      false,
	}
	for _, m := range list {
		if _, ok := want[m.Key()]; ok {
			want[m.Key()] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("series %s missing from %v", k, list)
		}
	}

	// Both ticks share their timestamp; the counter accumulated.
	res, err := s.Query(Query{Metric: "jobs_total",
		Labels: []Label{{Name: "route", Value: "a"}}, FromMs: 0, ToMs: 1 << 50})
	if err != nil {
		t.Fatal(err)
	}
	pts := res[0].Points
	if len(pts) != 2 {
		t.Fatalf("jobs_total{route=a}: %d samples, want 2", len(pts))
	}
	if pts[0].T != base.UnixMilli() || pts[1].T != base.Add(5*time.Second).UnixMilli() {
		t.Fatalf("tick timestamps %d, %d", pts[0].T, pts[1].T)
	}
	if pts[0].V != 1 || pts[1].V != 2 {
		t.Fatalf("counter values %v, %v", pts[0].V, pts[1].V)
	}
}

func TestScraperSkipsNonFinite(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("bad", "bad")
	s := memStore(t, Options{Retention: -1})
	sc := NewScraper(s, reg, time.Second, nil)

	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	g.Set(math.NaN())
	sc.Tick(base)
	g.Set(math.Inf(1))
	sc.Tick(base.Add(time.Second))
	g.Set(7)
	sc.Tick(base.Add(2 * time.Second))

	pts := querySamples(t, s, "bad")
	if len(pts) != 1 || pts[0].V != 7 {
		t.Fatalf("non-finite samples stored: %+v", pts)
	}
}

func TestScraperCollectRunsBeforeScrape(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("synced", "synced")
	s := memStore(t, Options{Retention: -1})
	n := 0.0
	sc := NewScraper(s, reg, time.Second, func() { n++; g.Set(n) })
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sc.Tick(base)
	sc.Tick(base.Add(time.Second))
	pts := querySamples(t, s, "synced")
	if len(pts) != 2 || pts[0].V != 1 || pts[1].V != 2 {
		t.Fatalf("collect not observed by its own tick: %+v", pts)
	}
}

func TestScraperCacheReusesSeries(t *testing.T) {
	reg := obs.NewRegistry()
	reg.CounterVec("c", "c", "l").With("x").Inc()
	s := memStore(t, Options{Retention: -1})
	sc := NewScraper(s, reg, time.Second, nil)
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sc.Tick(base)
	if len(sc.cache) == 0 {
		t.Fatal("first tick populated no cache")
	}
	sr1 := sc.cache["c\xffl\x01x"]
	sc.Tick(base.Add(time.Second))
	if sc.cache["c\xffl\x01x"] != sr1 {
		t.Fatal("steady-state tick rebuilt the series")
	}
	if len(s.SeriesList()) != 1 {
		t.Fatalf("duplicate series created: %v", s.SeriesList())
	}
}

// simDecisions is the decision trace `dvfssim -workload sha -governor
// prediction -jobs 3000` writes: the controller trained at suite seed
// 1, the simulation at seed 8, live events merged with ground truth.
func simDecisions(t *testing.T) []obs.DecisionEvent {
	t.Helper()
	w, err := workload.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	suite := experiments.NewSuiteOn(platform.ODROIDXU3A7(), 1)
	g, err := suite.Governor("prediction", w)
	if err != nil {
		t.Fatal(err)
	}
	mem := &obs.MemorySink{}
	g.(*core.Controller).SetTracer(obs.NewTracer(obs.TracerOptions{Sinks: []obs.Sink{mem}}))
	r, err := sim.Run(w, g, sim.Config{Plat: suite.Plat, Jobs: 3000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	return trace.MergeDecisions(mem.Events(), r)
}

// scrapeDecisions replays decisions through an obs.Registry and the
// scrape loop dvfsd runs, so the stored telemetry has the production
// shape: counters ticking up, histogram quantiles moving slowly,
// gauges stepping between levels. One scrape tick per decision, five
// simulated seconds apart.
func scrapeDecisions(store *Store, events []obs.DecisionEvent) {
	reg := obs.NewRegistry()
	decisions := reg.CounterVec("sim_decisions_total",
		"Decisions by workload and chosen level.", "workload", "level")
	missTotal := reg.CounterVec("sim_misses_total",
		"Deadline misses by workload.", "workload")
	execH := reg.HistogramVec("sim_exec_seconds",
		"Actual job execution time.", obs.LogLinearBuckets(1e-4, 10, 5), "workload")
	residH := reg.HistogramVec("sim_residual_seconds",
		"Prediction residual magnitude.", obs.LogLinearBuckets(1e-6, 1, 5), "workload")
	levelG := reg.GaugeVec("sim_level", "Last chosen DVFS level.", "workload")
	freqG := reg.GaugeVec("sim_freq_khz", "Last chosen frequency.", "workload")
	scraper := NewScraper(store, reg, 5*time.Second, nil)

	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for tick, e := range events {
		decisions.With(e.Workload, strconv.Itoa(e.Level)).Inc()
		levelG.With(e.Workload).Set(float64(e.Level))
		freqG.With(e.Workload).Set(float64(e.FreqKHz))
		if e.Done {
			execH.With(e.Workload).Observe(e.ActualExecSec)
			if e.Missed {
				missTotal.With(e.Workload).Inc()
			}
			if e.Predicted {
				residH.With(e.Workload).Observe(math.Abs(e.ResidualSec))
			}
		}
		scraper.Tick(base.Add(time.Duration(tick) * 5 * time.Second))
	}
}

// TestCompressionOnSimTrace: telemetry scraped from a 3000-job sha
// prediction run must seal to at least 8x smaller than raw 16-byte
// (t, v) points. The run is deterministic: 77122 samples at about
// 1.04 B/sample.
func TestCompressionOnSimTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a controller and simulates 3000 jobs")
	}
	store, err := Open(Options{Retention: -1})
	if err != nil {
		t.Fatal(err)
	}
	scrapeDecisions(store, simDecisions(t))
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Samples == 0 {
		t.Fatal("no samples ingested")
	}
	ratio := 16 / st.BytesPerSamp
	t.Logf("%d samples, %.4f B/sample, %.2fx vs raw16", st.Samples, st.BytesPerSamp, ratio)
	if ratio < 8 {
		t.Errorf("compression %.2fx vs raw 16-byte points, want >= 8x", ratio)
	}
}
