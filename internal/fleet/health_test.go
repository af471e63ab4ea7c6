package fleet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/alert"
	"repro/internal/obs"
)

// healthFleet is the fixed fleet the health tests score: 40 a7/x86
// devices on sha:3,rijndael:1, 20 jobs each, seed 3 — the fleet
// `dvfsfleet -devices 40 -platforms a7,x86 -workload-mix
// sha:3,rijndael:1 -jobs 20 -seed 3 -topk 5` scores.
func healthFleet(t *testing.T) []obs.DecisionEvent {
	t.Helper()
	sink := &obs.MemorySink{}
	if _, err := Run(Config{
		Devices:   40,
		Platforms: []string{"a7", "x86"},
		Mix:       []MixEntry{{Workload: "sha", Weight: 3}, {Workload: "rijndael", Weight: 1}},
		Jobs:      20,
		Seed:      3,
		Sink:      sink,
	}); err != nil {
		t.Fatal(err)
	}
	return sink.Events()
}

// TestFleetHealthEnergyMatchesMeter: the fleet tracker and the live
// energy meter price one fleet trace through the same charge rule and
// ledger, so every device's total joules agree bit for bit.
func TestFleetHealthEnergyMatchesMeter(t *testing.T) {
	events := healthFleet(t)
	tr := obs.NewFleetTracker(obs.FleetConfig{})
	m := alert.NewEnergyMeter(alert.EnergyConfig{})
	for i := range events {
		tr.Emit(&events[i])
		m.Emit(&events[i])
	}
	if m.Skipped() != 0 || tr.Snapshot().Unpriced != 0 {
		t.Fatalf("unpriced events: meter %d, tracker %d", m.Skipped(), tr.Snapshot().Unpriced)
	}
	meter := map[string]float64{}
	for _, s := range m.Snapshot() {
		meter[s.Device] = s.Total()
	}
	devices := tr.DeviceHealths()
	if len(devices) != 40 || len(meter) != 40 {
		t.Fatalf("tracker has %d devices, meter %d streams, want 40", len(devices), len(meter))
	}
	for _, d := range devices {
		if !(d.EnergyJ > 0) || d.EnergyJ != meter[d.Device] {
			t.Errorf("%s: tracker %v J, meter %v J", d.Device, d.EnergyJ, meter[d.Device])
		}
	}
}

// TestFleetHealthScoresPinned pins the health scores of the fixed
// fleet, priced by the platform ledger: every segment (idle,
// prediction slice, switch, execution) counts toward energy/job.
func TestFleetHealthScoresPinned(t *testing.T) {
	events := healthFleet(t)
	tr := obs.NewFleetTracker(obs.FleetConfig{TopK: 5})
	for i := range events {
		tr.Emit(&events[i])
	}
	s := tr.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "classes %d/%d/%d/%d energy/job p50 %.5g p99 %.5g\n",
		s.Healthy, s.Degraded, s.Outliers, s.Fresh, s.DeviceEnergyPerJob.P50, s.DeviceEnergyPerJob.P99)
	for _, d := range s.Worst {
		fmt.Fprintf(&b, "%s %s %.5g J/job score %.4f %s\n", d.Device, d.Platform, d.EnergyPerJob, d.Score, d.Attribution)
	}
	const want = `classes 40/0/0/0 energy/job p50 0.057668 p99 0.076336
dev-0000001 x86 0.076336 J/job score 0.1919 drift
dev-0000015 x86 0.076289 J/job score 0.1913 drift
dev-0000023 x86 0.076072 J/job score 0.1912 drift
dev-0000013 x86 0.075857 J/job score 0.1911 drift
dev-0000011 x86 0.076191 J/job score 0.1910 drift
`
	if got := b.String(); got != want {
		t.Errorf("health scores moved:\n%s\nwant:\n%s", got, want)
	}
}
