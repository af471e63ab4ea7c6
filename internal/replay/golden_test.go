package replay_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
	goldenSingleText = "2865662755def07efc9022dfa586c16de6de12eed18c0d0bcbbbee9d2d8f50cc"
	goldenSingleJSON = "cf3c0be3437ba093e2bba9a614466eabedc715b828ddc1e01491cbfc64e986bf"
	goldenFleetText  = "42c82cdb9a57e380b5371fe5a49a3644bdb62724a494ab1620f3719c54cb01bd"
	goldenFleetJSON  = "af49753fca2efdfd414cb1a250fd075e5b8ba3c4bf12e6d44ea1b02d34e6c8ca"
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestReplayReportGolden pins the single-device report (text, and the
// `-format json` document) over a multi-group sim trace — sha under
// the prediction, PID and performance governors, ldecode and
// pocketsphinx under prediction — and the fleet report
// (text and JSON) over a binary fleet trace. Span ledgers are stripped
// from the sim trace because they carry host wall time.
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
		for i := range events {
			events[i].Spans = nil
		}
		res, err := replay.Run(events, replay.Options{Plat: platform.ODROIDXU3A7(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var text, js bytes.Buffer
		res.WriteText(&text)
		enc := json.NewEncoder(&js)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "text", text.Bytes(), goldenSingleText)
		checkGolden(t, "json", js.Bytes(), goldenSingleJSON)
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

func checkGolden(t *testing.T, what string, out []byte, want string) {
	t.Helper()
	if got := digest(out); got != want {
		t.Errorf("%s report sha256 %s, want %s\n%s", what, got, want, out)
	}
}
