package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/tsdb"
)

// dashWindow bounds how many ring events feed the dashboard's rolling
// views; missRateSpan is the trailing window for the miss-rate series.
const (
	dashWindow   = 256
	missRateSpan = 32
)

// handleDash serves GET /debug/dash: a self-contained operations
// dashboard (inline CSS + SVG, zero scripts, zero external assets)
// that re-polls itself via <meta refresh>. Everything on it comes from
// state the daemon already holds — the tracer ring, the SLO tracker,
// the drift monitor, and the stream broadcaster — so rendering is
// read-only and cheap enough to leave unauthenticated on the debug
// mux.
func (s *Server) handleDash(w http.ResponseWriter, r *http.Request) {
	window, err := parseWindow(r.URL.Query().Get("window"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	p := render.NewHTMLPage("dvfsd operations")
	p.RefreshSec = 5

	var events []obs.DecisionEvent
	if s.tracer != nil {
		events = s.tracer.Snapshot(dashWindow)
	}

	p.Section("Overview")
	rows := [][]string{
		{"uptime", fmt.Sprintf("%.0f s", time.Since(s.start).Seconds())},
		{"models ready", fmt.Sprintf("%d", s.reg.Ready())},
	}
	if s.tracer != nil {
		rows = append(rows,
			[]string{"decisions traced", fmt.Sprintf("%d", s.tracer.Emitted())},
			[]string{"ring overwrites", fmt.Sprintf("%d", s.tracer.Dropped())},
		)
	} else {
		rows = append(rows, []string{"decision tracing", "disabled"})
	}
	if s.stream != nil {
		rows = append(rows,
			[]string{"stream subscribers", fmt.Sprintf("%d", s.stream.Subscribers())},
			[]string{"stream drops", fmt.Sprintf("%d", s.stream.Dropped())},
		)
	}
	p.Table([]string{"", ""}, rows, []bool{false, true})

	if len(events) == 0 {
		p.Note("No decisions in the trace ring yet — send predictions (dvfsload, or POST /v1/predict) and this page fills in.")
		s.energySection(p)
		s.historySection(p, "/debug/dash", window, dashHistoryCharts)
		p.WriteTo(w)
		return
	}
	rep := obs.Analyze(events)

	p.Section(fmt.Sprintf("Rolling window (last %d decisions)", len(events)))
	p.Para("Workloads: " + strings.Join(rep.Workloads, ", "))
	// The sparklines below are event-indexed (one point per decision,
	// not per unit time), so name the wall-clock span they actually
	// cover instead of implying a fixed window.
	first := s.start.Add(time.Duration(events[0].TimeSec * float64(time.Second)))
	last := s.start.Add(time.Duration(events[len(events)-1].TimeSec * float64(time.Second)))
	p.Para(fmt.Sprintf("One point per decision; first sample %s, last sample %s (spanning %s).",
		first.UTC().Format("15:04:05"), last.UTC().Format("15:04:05"),
		last.Sub(first).Round(time.Second)))
	p.Sparkline("miss rate", rollingMissRate(events, missRateSpan), "%.1f%%")
	if rs := residualSeries(events); len(rs) > 0 {
		p.Sparkline("residual", rs, "%+.3f ms")
	}
	if ds := decisionMicros(events); len(ds) > 0 {
		p.Sparkline("decision time", ds, "%.1f µs")
	}
	p.Sparkline("level", levelSeries(events), "%.0f")

	if len(rep.Phases) > 0 {
		p.Section(fmt.Sprintf("Decision phases (spans on %d of %d events)", rep.SpanEvents, rep.Events))
		phRows := make([][]string, 0, len(rep.Phases))
		for _, ph := range rep.Phases {
			phRows = append(phRows, []string{
				ph.Name, fmt.Sprintf("%d", ph.N),
				obs.FormatDur(ph.MeanSec), obs.FormatDur(ph.P50Sec),
				obs.FormatDur(ph.P95Sec), obs.FormatDur(ph.MaxSec),
			})
		}
		p.Table([]string{"phase", "n", "mean", "p50", "p95", "max"}, phRows,
			[]bool{false, true, true, true, true, true})
	}

	labels := make([]string, 0, len(rep.Levels))
	occs := make([]float64, 0, len(rep.Levels))
	for _, l := range rep.Levels {
		labels = append(labels, fmt.Sprintf("level %d", l.Level))
		occs = append(occs, 100*l.Frac)
	}
	p.BarChart("Level occupancy", labels, occs, "%.1f%%")

	if s.slo != nil {
		sloSection(p, "SLO burn", "workload", s.slo)
	}

	s.energySection(p)

	if s.tracer != nil && s.tracer.Drift() != nil {
		d := s.tracer.Drift()
		if wls := d.Workloads(); len(wls) > 0 {
			p.Section("Prediction drift")
			dRows := make([][]string, 0, len(wls))
			for _, wl := range wls {
				dRows = append(dRows, []string{
					wl,
					fmt.Sprintf("%.1f%%", 100*d.UnderRate(wl)),
					fmt.Sprintf("%+.3f ms", 1e3*d.Quantile(wl, 0.50)),
					fmt.Sprintf("%+.3f ms", 1e3*d.Quantile(wl, 0.95)),
				})
			}
			p.Table([]string{"workload", "under-predictions", "residual p50", "residual p95"},
				dRows, []bool{false, true, true, true})
		}
	}

	s.historySection(p, "/debug/dash", window, dashHistoryCharts)
	p.WriteTo(w)
}

// sloSection renders an SLO tracker's burn table. Whether a burn rate
// is an incident is the alert engine's call, served on /debug/alerts.
func sloSection(p *render.HTMLPage, title, keyHeader string, t *obs.SLOTracker) {
	p.Section(fmt.Sprintf("%s (target %.2f%% miss rate)", title, 100*t.Target()))
	snap := t.Snapshot()
	if len(snap) == 0 {
		p.Para("No completed jobs observed yet.")
		return
	}
	rows := make([][]string, 0, len(snap))
	for _, st := range snap {
		rows = append(rows, []string{
			st.Workload, fmt.Sprintf("%d", st.Jobs), fmt.Sprintf("%d", st.Misses),
			fmt.Sprintf("%.2f%%", 100*st.MissRate),
			fmt.Sprintf("%.2f", st.FastBurn), fmt.Sprintf("%.2f", st.SlowBurn),
		})
	}
	p.Table([]string{keyHeader, "jobs", "misses", "miss rate", "fast burn", "slow burn"},
		rows, []bool{false, true, true, true, true, true})
}

// energySection renders the online energy meter's per-stream totals —
// the live counterpart of dvfsreplay's offline reconstruction.
func (s *Server) energySection(p *render.HTMLPage) {
	if s.energy == nil {
		return
	}
	streams := s.energy.Snapshot()
	if len(streams) == 0 {
		return
	}
	title := "Energy (modeled)"
	if bw := s.energy.BudgetW(); bw > 0 {
		title = fmt.Sprintf("Energy (modeled, budget %.3g W)", bw)
	}
	p.Section(title)
	header := []string{"workload", "device", "jobs", "total", "energy/job", "predictor", "burn fast", "burn slow"}
	rows := make([][]string, 0, len(streams))
	for _, st := range streams {
		burnF, burnS := "—", "—"
		if s.energy.BudgetW() > 0 {
			burnF = fmt.Sprintf("%.2f×", st.FastBurn)
			burnS = fmt.Sprintf("%.2f×", st.SlowBurn)
		}
		rows = append(rows, []string{
			st.Workload, st.Device,
			fmt.Sprintf("%d", st.Jobs+st.OneShots),
			fmt.Sprintf("%.4g J", st.Total()),
			fmt.Sprintf("%.4g J", st.PerJobJ),
			fmt.Sprintf("%.1f%%", 100*st.PredictorShare),
			burnF, burnS,
		})
	}
	p.Table(header, rows, []bool{false, false, true, true, true, true, true, true})
	if sk := s.energy.Skipped(); sk > 0 {
		p.Para(fmt.Sprintf("%d events skipped (no usable platform power model).", sk))
	}
}

// dashHistoryCharts are the /debug/dash long-horizon panels, served
// from the embedded telemetry store.
var dashHistoryCharts = []historyChart{
	{title: "requests/s", metric: "dvfsd_requests_total", agg: tsdb.AggRate, format: "%.2f/s"},
	{title: "request p95", metric: "dvfsd_request_duration_seconds",
		labels: []tsdb.Label{{Name: "quantile", Value: "0.95"}},
		scale:  1e3, format: "%.3f ms"},
	{title: "decisions/s", metric: "dvfsd_decisions_total", agg: tsdb.AggRate, format: "%.2f/s"},
	{title: "goroutines", metric: "go_goroutines", format: "%.0f"},
	{title: "heap", metric: "go_heap_bytes", scale: 1.0 / (1 << 20), format: "%.1f MiB"},
	{title: "GC pause p99", metric: "go_gc_pause_seconds",
		labels: []tsdb.Label{{Name: "quantile", Value: "0.99"}},
		scale:  1e3, format: "%.3f ms"},
	{title: "sched latency p99", metric: "go_sched_latency_seconds",
		labels: []tsdb.Label{{Name: "quantile", Value: "0.99"}},
		scale:  1e3, format: "%.3f ms"},
	// Energy and alert panels chart nothing until the meter/engine are
	// configured — an absent metric matches no series and is skipped.
	{title: "energy budget burn (slow)", metric: "dvfsd_energy_budget_burn",
		labels: []tsdb.Label{{Name: "window", Value: "slow"}},
		agg:    tsdb.AggMax, format: "%.2f×"},
	{title: "alerts firing", metric: "dvfsd_alerts_firing",
		agg: tsdb.AggMax, format: "%.0f"},
}

// rollingMissRate is the trailing-window deadline-miss percentage over
// completed events, one point per completed event.
func rollingMissRate(events []obs.DecisionEvent, window int) []float64 {
	var done []bool
	for i := range events {
		if events[i].Done {
			done = append(done, events[i].Missed)
		}
	}
	out := make([]float64, 0, len(done))
	misses := 0
	for i, m := range done {
		if m {
			misses++
		}
		if i >= window && done[i-window] {
			misses--
		}
		n := i + 1
		if n > window {
			n = window
		}
		out = append(out, 100*float64(misses)/float64(n))
	}
	return out
}

// residualSeries is actual − predicted in milliseconds per completed
// predicted event.
func residualSeries(events []obs.DecisionEvent) []float64 {
	var out []float64
	for i := range events {
		if events[i].Done && events[i].Predicted {
			out = append(out, 1e3*events[i].ResidualSec)
		}
	}
	return out
}

// decisionMicros is the measured decision-phase time in microseconds
// per span-carrying event (the decide/serve root span).
func decisionMicros(events []obs.DecisionEvent) []float64 {
	var out []float64
	for i := range events {
		for _, sp := range events[i].Spans {
			if sp.Depth == 0 && (sp.Name == obs.PhaseDecide || sp.Name == obs.PhaseServe) {
				out = append(out, 1e6*sp.DurSec)
				break
			}
		}
	}
	return out
}

// levelSeries is the chosen DVFS level per event.
func levelSeries(events []obs.DecisionEvent) []float64 {
	out := make([]float64, len(events))
	for i := range events {
		out[i] = float64(events[i].Level)
	}
	return out
}
