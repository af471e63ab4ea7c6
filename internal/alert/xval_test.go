package alert_test

import (
	"testing"

	"repro/internal/alert"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestEnergyMeterCrossValidatesReplay is the acceptance check for the
// online meter: streaming a simulator trace through EnergyMeter.Emit
// must reproduce dvfsreplay's offline reconstruction of the same
// events exactly. Both charge the events to a platform.Ledger, so the
// exec, predictor and switch energies are equal; the idle energies
// differ by exactly the final drain — replay charges idle power out to
// the simulator's horizon (last release plus one period), which an
// online meter cannot know.
func TestEnergyMeterCrossValidatesReplay(t *testing.T) {
	for _, wl := range []string{"sha", "ldecode", "pocketsphinx", "rijndael"} {
		t.Run(wl, func(t *testing.T) { crossValidate(t, wl) })
	}
}

func crossValidate(t *testing.T, wl string) {
	w, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	plat := platform.ODROIDXU3A7()
	suite := experiments.NewSuiteOn(plat, 1)
	g, err := suite.Governor("prediction", w)
	if err != nil {
		t.Fatal(err)
	}
	ctl, ok := g.(*core.Controller)
	if !ok {
		t.Fatalf("prediction governor is %T, want *core.Controller", g)
	}
	mem := &obs.MemorySink{}
	ctl.SetTracer(obs.NewTracer(obs.TracerOptions{Sinks: []obs.Sink{mem}}))
	r, err := sim.Run(w, g, sim.Config{Plat: suite.Plat, Jobs: 80, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	events := trace.MergeDecisions(mem.Events(), r)

	res, err := replay.Run(events, replay.Options{Plat: plat})
	if err != nil {
		t.Fatal(err)
	}
	grp := res.Group(wl, "prediction")
	if grp == nil {
		t.Fatalf("replay produced no %s/prediction group", wl)
	}
	offline := grp.Traced

	meter := alert.NewEnergyMeter(alert.EnergyConfig{Platform: plat})
	for i := range events {
		meter.Emit(&events[i])
	}
	if sk := meter.Skipped(); sk != 0 {
		t.Fatalf("meter skipped %d events", sk)
	}
	streams := meter.Snapshot()
	if len(streams) != 1 {
		t.Fatalf("meter tracked %d streams, want 1", len(streams))
	}
	live := streams[0]
	if offline.EnergyJ <= 0 {
		t.Fatalf("offline reconstruction reports %g J", offline.EnergyJ)
	}

	for _, c := range []struct {
		name       string
		live, repl float64
	}{
		{"exec", live.ExecJ, offline.Breakdown.ExecJ},
		{"predictor", live.PredictorJ, offline.Breakdown.PredictorJ},
		{"switch", live.SwitchJ, offline.Breakdown.SwitchJ},
	} {
		if c.live != c.repl {
			t.Errorf("%s: live %.17g J vs replay %.17g J", c.name, c.live, c.repl)
		}
	}
	if live.DurationSec > offline.DurationSec {
		t.Errorf("live duration %.6f s exceeds replay horizon %.6f s", live.DurationSec, offline.DurationSec)
	}
	last := events[len(events)-1]
	lastLevel, err := plat.Level(last.Level)
	if err != nil {
		t.Fatal(err)
	}
	drain := plat.IdlePower(lastLevel) * (offline.DurationSec - live.DurationSec)
	if live.IdleJ+drain != offline.Breakdown.IdleJ {
		t.Errorf("idle shortfall is not the horizon drain: live %.17g + drain %.17g vs replay %.17g",
			live.IdleJ, drain, offline.Breakdown.IdleJ)
	}
}
