package replay_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Golden SHA-256 digests of dvfsreplay's outputs on fixed traces. Every
// reported joule, miss and sweep point feeds these bytes, so a change
// to the energy accounting that moves any printed digit fails here.
// Regenerate only for an intended change of the reports.
const (
	goldenSingleText  = "2865662755def07efc9022dfa586c16de6de12eed18c0d0bcbbbee9d2d8f50cc"
	goldenSingleJSON  = "cf3c0be3437ba093e2bba9a614466eabedc715b828ddc1e01491cbfc64e986bf"
	goldenLdecodeText = "ae2fd851be1825737372c23402655e8f4b37845696d029e7702e878734caba6d"
	goldenLdecodeJSON = "81b613df0a135b666793e480295828c214f0b74d991814e668e0706ffedecb84"
	goldenFleetText   = "42c82cdb9a57e380b5371fe5a49a3644bdb62724a494ab1620f3719c54cb01bd"
	goldenFleetJSON   = "af49753fca2efdfd414cb1a250fd075e5b8ba3c4bf12e6d44ea1b02d34e6c8ca"
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestReplayReportGolden pins the single-device report (text, and the
// `-format json` document) over a multi-group sim trace — sha under
// the prediction, PID and performance governors, ldecode and
// pocketsphinx under prediction — the same two reports over a
// 200-job ldecode prediction trace, and the fleet report (text and
// JSON) over a binary fleet trace. Span ledgers are stripped from the
// sim traces because they carry host wall time.
func TestReplayReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds controllers and simulates a fleet")
	}
	t.Run("single", func(t *testing.T) {
		var events []obs.DecisionEvent
		for _, run := range []struct{ workload, governor string }{
			{"sha", "prediction"}, {"sha", "pid"}, {"sha", "performance"},
			{"ldecode", "prediction"}, {"pocketsphinx", "prediction"},
		} {
			_, evs := tracedRunOn(t, run.workload, run.governor, 120)
			events = append(events, evs...)
		}
		res := replaySingle(t, events)
		text, js := singleReports(t, res)
		checkGolden(t, "text", text, goldenSingleText)
		checkGolden(t, "json", js, goldenSingleJSON)
	})
	// The headline trade-off on one workload: 200 ldecode jobs under
	// the prediction controller, every counterfactual's energy and
	// misses pinned exactly (the paper's Fig 15 normalization rests on
	// these joules).
	t.Run("ldecode", func(t *testing.T) {
		_, events := tracedRunOn(t, "ldecode", "prediction", 200)
		res := replaySingle(t, events)
		g := res.Group("ldecode", "prediction")
		if g == nil {
			t.Fatalf("no ldecode/prediction group in %+v", res.Groups)
		}
		if g.Traced.EnergyJ != 3.692067610419657 || g.Traced.Misses != 0 {
			t.Errorf("traced %v J, %d misses; want 3.692067610419657 J, 0 misses", g.Traced.EnergyJ, g.Traced.Misses)
		}
		for _, want := range []struct {
			name    string
			energyJ float64
			misses  int
		}{
			{"performance", 6.390354511105618, 0},
			{"powersave", 2.296846847715954, 200},
			{"oracle", 3.0588936477484223, 0},
			{"pid", 3.5967740384597615, 31},
			{"prediction", 3.690279637561806, 0},
		} {
			p := g.Policy(want.name)
			if p == nil {
				t.Errorf("no %s policy", want.name)
				continue
			}
			if p.EnergyJ != want.energyJ || p.Misses != want.misses {
				t.Errorf("%s %v J, %d misses; want %v J, %d misses", want.name, p.EnergyJ, p.Misses, want.energyJ, want.misses)
			}
		}
		text, js := singleReports(t, res)
		checkGolden(t, "text", text, goldenLdecodeText)
		checkGolden(t, "json", js, goldenLdecodeJSON)
	})
	t.Run("fleet", func(t *testing.T) {
		mix, err := fleet.ParseMix("sha:3,rijndael:1")
		if err != nil {
			t.Fatal(err)
		}
		sink := &obs.MemorySink{}
		if _, err := fleet.Run(fleet.Config{
			Devices:   10,
			Platforms: []string{"a7", "x86"},
			Mix:       mix,
			Jobs:      20,
			Seed:      1,
			Sink:      sink,
		}); err != nil {
			t.Fatal(err)
		}
		var bin bytes.Buffer
		if err := trace.WriteBinary(&bin, sink.Events()); err != nil {
			t.Fatal(err)
		}
		events, err := trace.ReadBinary(&bin)
		if err != nil {
			t.Fatal(err)
		}
		res, err := replay.RunFleet(events, replay.FleetOptions{Plat: platform.ODROIDXU3A7(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var text, js bytes.Buffer
		res.WriteText(&text)
		if err := res.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "text", text.Bytes(), goldenFleetText)
		checkGolden(t, "json", js.Bytes(), goldenFleetJSON)
	})
}

// replaySingle replays a sim trace single-device at seed 1, with span
// ledgers stripped because they carry host wall time.
func replaySingle(t *testing.T, events []obs.DecisionEvent) *replay.Result {
	t.Helper()
	for i := range events {
		events[i].Spans = nil
	}
	res, err := replay.Run(events, replay.Options{Plat: platform.ODROIDXU3A7(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// singleReports renders dvfsreplay's text report and its
// `-format json` document.
func singleReports(t *testing.T, res *replay.Result) (text, js []byte) {
	t.Helper()
	var tb, jb bytes.Buffer
	res.WriteText(&tb)
	if err := res.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes()
}

func checkGolden(t *testing.T, what string, out []byte, want string) {
	t.Helper()
	if got := digest(out); got != want {
		t.Errorf("%s report sha256 %s, want %s\n%s", what, got, want, out)
	}
}
