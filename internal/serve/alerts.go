package serve

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/render"
)

// alertStateGauges surface the alert engine's state on /metrics, synced on
// read like the fleet and tsdb gauges.
type alertStateGauges struct {
	pending *obs.Gauge
	firing  *obs.Gauge

	incidents *obs.Counter
	// incidentMu guards incidentSeen, the incident total already folded
	// into the counter (the engine reports a running total; a counter
	// must only move forward — the SyncRingDropped idiom).
	incidentMu   sync.Mutex
	incidentSeen uint64
}

func newAlertStateGauges(reg *obs.Registry) *alertStateGauges {
	return &alertStateGauges{
		pending: reg.Gauge("dvfsd_alerts_pending",
			"Alert (rule, series) pairs waiting out their For duration."),
		firing: reg.Gauge("dvfsd_alerts_firing",
			"Alert (rule, series) pairs currently firing."),
		incidents: reg.Counter("dvfsd_alert_incidents_total",
			"Incidents opened by the alert engine (firing transitions)."),
	}
}

// sync pushes the engine's live counts into the gauges.
func (g *alertStateGauges) sync(e *alert.Engine) {
	pending, firing := e.Counts()
	g.pending.Set(float64(pending))
	g.firing.Set(float64(firing))
	total := e.IncidentsTotal()
	g.incidentMu.Lock()
	if total > g.incidentSeen {
		g.incidents.Add(float64(total - g.incidentSeen))
		g.incidentSeen = total
	} else if g.incidentSeen == 0 {
		g.incidents.Add(0) // touch the series so it is visible at zero
	}
	g.incidentMu.Unlock()
}

// energyGauges export the online energy meter, synced from a meter
// snapshot on every scrape tick. Joule and job totals are monotone per
// stream, so they fold into counters with the same seen-map idiom the
// ring-drop counter uses; the per-job, predictor-share, and burn
// numbers are instantaneous gauges.
type energyGauges struct {
	joules  *obs.CounterVec
	jobs    *obs.CounterVec
	perJob  *obs.GaugeVec
	share   *obs.GaugeVec
	burn    *obs.GaugeVec
	skipped *obs.Counter

	mu          sync.Mutex
	jouleSeen   map[string]float64
	jobSeen     map[string]float64
	skippedSeen uint64
}

func newEnergyGauges(reg *obs.Registry) *energyGauges {
	return &energyGauges{
		jouleSeen: map[string]float64{},
		jobSeen:   map[string]float64{},
		joules: reg.CounterVec("dvfsd_energy_joules_total",
			"Modeled energy accumulated per decision stream.", "workload", "device"),
		jobs: reg.CounterVec("dvfsd_energy_jobs_total",
			"Jobs metered per decision stream (completed + one-shot).", "workload", "device"),
		perJob: reg.GaugeVec("dvfsd_energy_per_job_joules",
			"Mean modeled energy per completed job.", "workload", "device"),
		share: reg.GaugeVec("dvfsd_energy_predictor_share",
			"Fraction of a stream's energy spent running the predictor.", "workload", "device"),
		burn: reg.GaugeVec("dvfsd_energy_budget_burn",
			"Windowed watts divided by the -energy-budget; 1.0 means the budget is fully consumed.",
			"workload", "device", "window"),
		skipped: reg.Counter("dvfsd_energy_skipped_total",
			"Decision events the energy meter dropped for lack of a usable platform model."),
	}
}

// sync folds a meter snapshot into the exported metrics.
func (g *energyGauges) sync(m *alert.EnergyMeter) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, st := range m.Snapshot() {
		key := st.Workload + "\xff" + st.Device
		if j := st.Total(); j > g.jouleSeen[key] {
			g.joules.With(st.Workload, st.Device).Add(j - g.jouleSeen[key])
			g.jouleSeen[key] = j
		}
		if n := float64(st.Jobs + st.OneShots); n > g.jobSeen[key] {
			g.jobs.With(st.Workload, st.Device).Add(n - g.jobSeen[key])
			g.jobSeen[key] = n
		}
		g.perJob.With(st.Workload, st.Device).Set(st.PerJobJ)
		g.share.With(st.Workload, st.Device).Set(st.PredictorShare)
		if m.BudgetW() > 0 {
			g.burn.With(st.Workload, st.Device, "fast").Set(st.FastBurn)
			g.burn.With(st.Workload, st.Device, "slow").Set(st.SlowBurn)
		}
	}
	if sk := m.Skipped(); sk > g.skippedSeen {
		g.skipped.Add(float64(sk - g.skippedSeen))
		g.skippedSeen = sk
	}
}

// handleAlerts serves GET /v1/alerts: the engine snapshot — rule
// status, active (pending/firing) alerts, and the retained incident
// history, open incidents included.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.alerts == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "alerting disabled (start dvfsd with -tsdb-scrape > 0)"})
		return
	}
	writeJSON(w, http.StatusOK, s.alerts.Snapshot())
}

// handleAlertDash serves GET /debug/alerts: the incident timeline —
// rule table with live state, active alerts, and the incident history
// newest-first. Self-contained HTML like the other debug pages.
func (s *Server) handleAlertDash(w http.ResponseWriter, r *http.Request) {
	if s.alerts == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "alerting disabled (start dvfsd with -tsdb-scrape > 0)"})
		return
	}
	snap := s.alerts.Snapshot()
	p := render.NewHTMLPage("dvfsd alerts")
	p.RefreshSec = 5

	p.Section("Overview")
	pending, firing := 0, 0
	for _, a := range snap.Active {
		switch a.State {
		case alert.StatePending:
			pending++
		case alert.StateFiring:
			firing++
		}
	}
	open := 0
	for _, inc := range snap.Incidents {
		if inc.EndMs == 0 {
			open++
		}
	}
	rows := [][]string{
		{"rules", fmt.Sprintf("%d", len(snap.Rules))},
		{"firing", fmt.Sprintf("%d", firing)},
		{"pending", fmt.Sprintf("%d", pending)},
		{"open incidents", fmt.Sprintf("%d", open)},
		{"evaluations", fmt.Sprintf("%d", snap.Evals)},
		{"query errors", fmt.Sprintf("%d", snap.QueryErrors)},
	}
	if snap.LastEvalMs > 0 {
		rows = append(rows, []string{"last evaluation", alertTime(snap.LastEvalMs)})
	}
	p.Table([]string{"", ""}, rows, []bool{false, true})

	p.Section("Rules")
	rRows := make([][]string, 0, len(snap.Rules))
	for _, r := range snap.Rules {
		rRows = append(rRows, []string{
			r.Name, string(r.Kind), r.Metric, r.Severity,
			string(r.State), fmt.Sprintf("%d", r.Series),
		})
	}
	p.Table([]string{"rule", "kind", "metric", "severity", "state", "series"},
		rRows, []bool{false, false, false, false, false, true})

	p.Section("Active alerts")
	if len(snap.Active) == 0 {
		p.Para("Nothing pending or firing.")
	} else {
		aRows := make([][]string, 0, len(snap.Active))
		for _, a := range snap.Active {
			aRows = append(aRows, []string{
				a.Rule, a.Series, string(a.State), a.Severity,
				alertTime(a.SinceMs), fmt.Sprintf("%.4g", a.Value),
			})
		}
		p.Table([]string{"rule", "series", "state", "severity", "since", "value"},
			aRows, []bool{false, false, false, false, false, true})
	}

	p.Section(fmt.Sprintf("Incidents (%d retained, newest first)", len(snap.Incidents)))
	if len(snap.Incidents) == 0 {
		p.Para("No incidents yet — the engine opens one per pending→firing transition.")
	} else {
		iRows := make([][]string, 0, len(snap.Incidents))
		for _, inc := range snap.Incidents {
			end, dur := "open", "—"
			if inc.EndMs > 0 {
				end = alertTime(inc.EndMs)
				dur = (time.Duration(inc.EndMs-inc.StartMs) * time.Millisecond).Round(time.Second).String()
			} else if snap.LastEvalMs > inc.StartMs {
				dur = (time.Duration(snap.LastEvalMs-inc.StartMs) * time.Millisecond).Round(time.Second).String() + "+"
			}
			iRows = append(iRows, []string{
				alertTime(inc.StartMs), end, dur, inc.Rule, inc.Series,
				inc.Severity, fmt.Sprintf("%.4g", inc.Value), inc.Summary,
			})
		}
		p.Table([]string{"started", "ended", "duration", "rule", "series", "severity", "value", "summary"},
			iRows, []bool{false, false, false, false, false, false, true, false})
	}
	p.WriteTo(w)
}

// alertTime renders an epoch-ms timestamp the way the dashboards show
// wall-clock times.
func alertTime(ms int64) string {
	if ms <= 0 {
		return "—"
	}
	return time.UnixMilli(ms).UTC().Format("15:04:05")
}

// firingSpans converts the engine's firing intervals for metric into
// chart overlays for the history panels; nil when alerting is off.
func (s *Server) firingSpans(metric string, fromMs, toMs int64) []render.ChartSpan {
	if s.alerts == nil {
		return nil
	}
	spans := s.alerts.FiringSpans(metric, fromMs, toMs)
	if len(spans) == 0 {
		return nil
	}
	out := make([]render.ChartSpan, len(spans))
	for i, sp := range spans {
		out[i] = render.ChartSpan{
			FromMs: sp.FromMs, ToMs: sp.ToMs,
			Label: sp.Rule + " (" + sp.Severity + ")",
		}
	}
	return out
}
