package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

func getDash(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dash: HTTP %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestDashRenders drives the dashboard from synthetic ring events: it
// must be a complete self-contained HTML document with sparklines,
// the phase table, level occupancy, SLO and drift sections, and a
// meta-refresh — and reference no external asset or script.
func TestDashRenders(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	drift := obs.NewDriftMonitor()
	slo := obs.NewSLOTracker(obs.SLOConfig{Target: 0.01})
	tracer := obs.NewTracer(obs.TracerOptions{RingSize: 128, Drift: drift, SLO: slo})
	ts := httptest.NewServer(NewServer(reg, ServerOptions{
		Tracer: tracer, SLO: slo,
		Stream:      obs.NewBroadcaster(obs.BroadcasterOptions{}),
		EnableDebug: true,
	}))
	defer ts.Close()

	for i := 0; i < 20; i++ {
		p := tracer.Begin(obs.DecisionEvent{
			Workload: "sha", Governor: "prediction", Job: i,
			TimeSec: float64(i) * 0.05, Predicted: true,
			PredictedExecSec: 0.020, EffBudgetSec: 0.049, Level: i % 4,
			Spans: []obs.Span{
				{Name: obs.PhaseDecide, StartSec: 0, DurSec: 0.001},
				{Name: obs.PhasePredict, Depth: 1, StartSec: 0.0002, DurSec: 0.0004},
			},
			SpanTotalSec: 0.001,
		})
		p.End(0.021, i == 7)
	}

	body := getDash(t, ts)
	for _, want := range []string{
		"<!DOCTYPE html>",
		`<meta http-equiv="refresh" content="5">`,
		"dvfsd operations",
		"decisions traced", ">20<",
		"stream subscribers",
		"<svg", "polyline", // sparklines
		"miss rate", "decision time",
		"Decision phases", obs.PhaseDecide, obs.PhasePredict,
		"Level occupancy",
		"SLO burn", "sha",
		"Prediction drift",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	for _, banned := range []string{"<script", "http://", "https://"} {
		if strings.Contains(body, banned) {
			t.Errorf("dashboard must be self-contained, found %q", banned)
		}
	}
}

// TestDashEmptyAndDisabled: with no traced decisions the page still
// renders (with a pointer at dvfsload), and without EnableDebug the
// route does not exist.
func TestDashEmptyAndDisabled(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewServer(reg, ServerOptions{
		Tracer: obs.NewTracer(obs.TracerOptions{RingSize: 8}), EnableDebug: true,
	}))
	defer ts.Close()
	body := getDash(t, ts)
	if !strings.Contains(body, "No decisions in the trace ring yet") {
		t.Errorf("empty dashboard missing hint:\n%s", body)
	}

	ts2 := httptest.NewServer(NewServer(reg, ServerOptions{}))
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("dash without debug: HTTP %d, want 404", resp.StatusCode)
	}
}
