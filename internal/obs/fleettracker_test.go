package obs

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/platform"
)

// fleetEvent builds a completed decision event for device d on the A7
// board, so the tracker prices its energy.
func fleetEvent(dev string, missed bool, residFrac float64) *DecisionEvent {
	return &DecisionEvent{
		Workload:         "mpeg",
		Platform:         "a7",
		Device:           dev,
		Predicted:        true,
		PredictedExecSec: 0.010,
		ResidualSec:      residFrac * 0.010,
		ActualExecSec:    0.010 * (1 + residFrac),
		FreqKHz:          1_400_000,
		Done:             true,
		Missed:           missed,
	}
}

// TestFleetTrackerClassification: a device that misses constantly
// scores as an outlier attributed to misses; a drifting-but-hitting
// device lands on drift; a clean device stays healthy.
func TestFleetTrackerClassification(t *testing.T) {
	tr := NewFleetTracker(FleetConfig{})
	for i := 0; i < 200; i++ {
		tr.Emit(fleetEvent("good", false, 0.01))
		tr.Emit(fleetEvent("missy", true, 0.01))
		tr.Emit(fleetEvent("drifty", false, 0.9))
	}
	byDev := map[string]DeviceHealth{}
	for _, d := range tr.DeviceHealths() {
		byDev[d.Device] = d
	}
	if got := byDev["good"]; got.Class != ClassHealthy {
		t.Errorf("good: class %q score %.3f, want healthy", got.Class, got.Score)
	}
	if got := byDev["missy"]; got.Class != ClassOutlier || got.Attribution != "miss" {
		t.Errorf("missy: class %q attribution %q score %.3f, want outlier/miss",
			got.Class, got.Attribution, got.Score)
	}
	if got := byDev["drifty"]; got.Class == ClassHealthy || got.Attribution != "drift" {
		t.Errorf("drifty: class %q attribution %q score %.3f, want degraded-or-worse/drift",
			got.Class, got.Attribution, got.Score)
	}

	s := tr.Snapshot()
	if s.Devices != 3 {
		t.Fatalf("Devices = %d, want 3", s.Devices)
	}
	if s.Completed != 600 || s.Misses != 200 {
		t.Errorf("Completed/Misses = %d/%d, want 600/200", s.Completed, s.Misses)
	}
	if len(s.Worst) == 0 || s.Worst[0].Device != "missy" {
		t.Errorf("Worst[0] = %+v, want missy first", s.Worst)
	}
	if len(s.TopMiss) == 0 || s.TopMiss[0].Key != "missy" || s.TopMiss[0].Count != 200 {
		t.Errorf("TopMiss = %v, want missy=200 first", s.TopMiss)
	}
	if s.ResidualFrac.P99 < 0.5 {
		t.Errorf("ResidualFrac.P99 = %v, want ≥ 0.5 (drifty's 0.9 fraction)", s.ResidualFrac.P99)
	}
}

// TestFleetTrackerFreshGate: devices under minJobs are reported fresh
// and excluded from the worst-devices ranking.
func TestFleetTrackerFreshGate(t *testing.T) {
	tr := NewFleetTracker(FleetConfig{})
	for i := 0; i < 3; i++ {
		tr.Emit(fleetEvent("young", true, 2.0))
	}
	s := tr.Snapshot()
	if s.Fresh != 1 || len(s.Worst) != 0 {
		t.Errorf("Fresh=%d Worst=%v, want fresh device excluded from ranking", s.Fresh, s.Worst)
	}
}

// TestFleetTrackerUnlabeledDevice: events without a Device label
// aggregate under the "-" placeholder rather than vanishing.
func TestFleetTrackerUnlabeledDevice(t *testing.T) {
	tr := NewFleetTracker(FleetConfig{})
	e := fleetEvent("", false, 0)
	e.Device = ""
	tr.Emit(e)
	all := tr.DeviceHealths()
	if len(all) != 1 || all[0].Device != deviceKey {
		t.Fatalf("DeviceHealths = %+v, want single %q entry", all, deviceKey)
	}
}

// TestSLOTrackerObserveEventKeys: completed events feed the keyed SLO
// tracker under fleet/platform/workload keys.
func TestSLOTrackerObserveEventKeys(t *testing.T) {
	slo := NewSLOTracker(SLOConfig{Target: 0.01})
	for i := 0; i < 50; i++ {
		slo.ObserveEvent(fleetEvent("d0", i%2 == 0, 0))
	}
	for _, key := range []string{FleetKey, "platform:a7", "workload:mpeg"} {
		st, ok := slo.Status(key)
		if !ok || st.Jobs != 50 || st.Misses != 25 {
			t.Errorf("SLO key %q: %+v ok=%v, want 50 jobs / 25 misses", key, st, ok)
		}
	}
}

// TestSLOTrackerMaxKeys: beyond the key bound, new keys fold into the
// overflow window and totals stay accurate.
func TestSLOTrackerMaxKeys(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{MaxKeys: 4})
	for i := 0; i < 20; i++ {
		tr.Observe(fmt.Sprintf("w%d", i), true)
	}
	snap := tr.Snapshot()
	// 4 distinct keys plus the overflow catch-all.
	if len(snap) != 5 {
		t.Fatalf("got %d keys %v, want 5 (4 + overflow)", len(snap), snap)
	}
	of, ok := tr.Status(OverflowKey)
	if !ok || of.Jobs != 16 {
		t.Errorf("overflow status = %+v ok=%v, want 16 folded jobs", of, ok)
	}
	// Existing keys keep observing normally at the bound.
	tr.Observe("w0", false)
	if st, _ := tr.Status("w0"); st.Jobs != 2 {
		t.Errorf("w0 jobs = %d, want 2", st.Jobs)
	}
}

// TestFleetTrackerRace: 32 concurrent writers emitting to overlapping
// devices while snapshots are taken. Run under -race in CI; also
// checks final totals so the tracker loses no events.
func TestFleetTrackerRace(t *testing.T) {
	const writers = 32
	const perWriter = 500
	tr := NewFleetTracker(FleetConfig{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				dev := fmt.Sprintf("dev-%03d", (w*7+i)%64)
				tr.Emit(fleetEvent(dev, i%10 == 0, float64(i%5)*0.05))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			_ = tr.Snapshot()
			_ = tr.DeviceHealths()
		}
	}()
	wg.Wait()
	<-done

	s := tr.Snapshot()
	if want := uint64(writers * perWriter); s.Events != want || s.Completed != want {
		t.Errorf("Events/Completed = %d/%d, want %d", s.Events, s.Completed, want)
	}
	if s.Devices != 64 {
		t.Errorf("Devices = %d, want 64", s.Devices)
	}
	var jobs int64
	for _, d := range tr.DeviceHealths() {
		jobs += d.Jobs
	}
	if jobs != writers*perWriter {
		t.Errorf("summed device jobs = %d, want %d", jobs, writers*perWriter)
	}
	if len(s.History) == 0 {
		t.Errorf("history empty after %d completed jobs (a point every %d)", s.Completed, historyEvery)
	}
}

// TestFleetTrackerDeterministicSnapshot: the same serial feed always
// produces the same snapshot (device ordering, quantiles, heavy
// hitters) — the property fleet replay reports rely on.
func TestFleetTrackerDeterministicSnapshot(t *testing.T) {
	build := func() FleetStatus {
		tr := NewFleetTracker(FleetConfig{})
		for i := 0; i < 2000; i++ {
			dev := fmt.Sprintf("dev-%02d", i%40)
			tr.Emit(fleetEvent(dev, i%17 == 0, float64(i%7)*0.03))
		}
		return tr.Snapshot()
	}
	a, b := build(), build()
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("snapshots differ across identical feeds:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFleetTrackerEnergyAttribution: a device running every job at the
// top level, among devices running the same jobs at the bottom level,
// is the one whose health is attributed to energy. Its joules are the
// ledger's: idle to each event, then the prediction slice, the switch
// and the execution, summed bit for bit.
func TestFleetTrackerEnergyAttribution(t *testing.T) {
	plat := platform.ODROIDXU3A7()
	top := plat.NumLevels() - 1
	tr := NewFleetTracker(FleetConfig{})
	event := func(dev string, i, level int) *DecisionEvent {
		return &DecisionEvent{
			Platform: "a7", Device: dev, Workload: "sha",
			TimeSec: float64(i) * 0.05, FromLevel: level, Level: level,
			PredictorSec: 1e-4, ActualExecSec: 0.01, Done: true,
		}
	}
	want := platform.NewLedger(platform.NewPowerTable(plat))
	for i := 0; i < 40; i++ {
		tr.Emit(event("hot", i, top))
		want.IdleUntil(float64(i)*0.05, top)
		want.Run(top, top, 1e-4, 0, 0.01)
		for _, dev := range []string{"cool-1", "cool-2", "cool-3"} {
			tr.Emit(event(dev, i, 0))
		}
	}
	byDev := map[string]DeviceHealth{}
	for _, d := range tr.DeviceHealths() {
		byDev[d.Device] = d
	}
	hot, cool := byDev["hot"], byDev["cool-1"]
	if hot.EnergyJ != want.Breakdown().Total() {
		t.Errorf("hot EnergyJ = %v, want the ledger's %v", hot.EnergyJ, want.Breakdown().Total())
	}
	if hot.Attribution != "energy" || !(hot.Score > 0) {
		t.Errorf("hot: attribution %q score %v, want energy and a positive score", hot.Attribution, hot.Score)
	}
	if !(hot.EnergyPerJob > cool.EnergyPerJob) || cool.Score != 0 {
		t.Errorf("cool: energy/job %v (hot %v) score %v, want less energy and a zero score",
			cool.EnergyPerJob, hot.EnergyPerJob, cool.Score)
	}
	if s := tr.Snapshot(); s.Unpriced != 0 {
		t.Errorf("Unpriced = %d, want 0 on a resolvable platform", s.Unpriced)
	}
}

// TestFleetTrackerUnpricedCounted: events of a device whose platform
// does not resolve are counted, not priced by a guessed power curve.
func TestFleetTrackerUnpricedCounted(t *testing.T) {
	tr := NewFleetTracker(FleetConfig{})
	for i := 0; i < 12; i++ {
		e := fleetEvent("d0", false, 0)
		e.Platform = "odroid-a7" // the board's model name, not a platform.ByName name
		tr.Emit(e)
	}
	s := tr.Snapshot()
	if s.Unpriced != 12 {
		t.Errorf("Unpriced = %d, want 12", s.Unpriced)
	}
	if d := tr.DeviceHealths()[0]; d.EnergyJ != 0 || d.EnergyPerJob != 0 {
		t.Errorf("unpriced device has energy %v (%v/job), want 0", d.EnergyJ, d.EnergyPerJob)
	}
}
