package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// /debug/slo serves the tracker's snapshot; without a tracker it
// explains how to enable it.
func TestDebugSLO(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	slo := obs.NewSLOTracker(obs.SLOConfig{Target: 0.01})
	tracer := obs.NewTracer(obs.TracerOptions{RingSize: 8, SLO: slo})
	ts := httptest.NewServer(NewServer(reg, ServerOptions{
		Tracer: tracer, EnableDebug: true, SLO: slo,
	}))
	defer ts.Close()

	for i := 0; i < 16; i++ {
		p := tracer.Begin(obs.DecisionEvent{Workload: "ldecode", Job: i})
		p.End(0.01, true) // every job misses: burn 1/0.01 on both windows
	}

	resp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/slo: HTTP %d, %v", resp.StatusCode, err)
	}
	var sr SLOResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Target != 0.01 || len(sr.Workloads) != 1 {
		t.Fatalf("slo response: %+v", sr)
	}
	w := sr.Workloads[0]
	if w.Workload != "ldecode" || w.Misses != 16 || w.FastBurn != 100 || w.SlowBurn != 100 {
		t.Errorf("workload status: %+v", w)
	}
	// Firing state is the alert engine's, served on /v1/alerts.
	if strings.Contains(string(body), "alerting") {
		t.Errorf("debug/slo still reports an alert bit: %s", body)
	}

	// The burn gauges and the ring-drop counter land on /metrics.
	// 16 completed events through an 8-slot ring overwrote 8.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	mb.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`dvfsd_slo_burn_rate{workload="ldecode",window="fast"} 100`,
		`dvfsd_slo_burn_rate{workload="ldecode",window="slow"} 100`,
		`obs_ring_dropped_total{ring="decisions"} 8`,
	} {
		if !strings.Contains(mb.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, mb.String())
		}
	}
	if strings.Contains(mb.String(), "dvfsd_slo_alert") {
		t.Errorf("metrics still carry the retired dvfsd_slo_alert gauge:\n%s", mb.String())
	}

	// A second scrape must not double-count the drops (monotone sync).
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb.Reset()
	mb.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(mb.String(), `obs_ring_dropped_total{ring="decisions"} 8`) {
		t.Error("ring-drop counter moved without new drops")
	}
}

func TestDebugSLODisabled(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewServer(reg, ServerOptions{EnableDebug: true}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(e.Error, "SLO tracking disabled") {
		t.Errorf("no-slo: HTTP %d, %+v", resp.StatusCode, e)
	}
}

// SyncGauges exports a drift workload's under-prediction rate only once
// its window holds 50 residuals: the model_stale rule never sees a
// cold-start rate.
func TestSyncGaugesUnderRateColdStart(t *testing.T) {
	reg, err := NewRegistry(RegistryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	drift := obs.NewDriftMonitor()
	srv := NewServer(reg, ServerOptions{Drift: drift})
	scrape := func() string {
		srv.SyncGauges()
		var b bytes.Buffer
		srv.Metrics().WriteTo(&b)
		return b.String()
	}
	for i := 0; i < 49; i++ {
		drift.Observe("fleet:sha", 0.01)
	}
	if m := scrape(); strings.Contains(m, "dvfsd_model_under_rate{") {
		t.Fatalf("under rate exported after 49 residuals:\n%s", m)
	}
	drift.Observe("fleet:sha", 0.01)
	if m := scrape(); !strings.Contains(m, `dvfsd_model_under_rate{workload="fleet:sha"} 1`) {
		t.Fatalf("under rate not exported at 50 residuals:\n%s", m)
	}
}
