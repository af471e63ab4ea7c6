package replay_test

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// BenchmarkFleetSpeedup is the timer behind `make fleet-speedup`. It
// replays the gate's fleet — the trace of `dvfsfleet -devices 2000
// -platforms a7,x86 -workload-mix sha:3,rijndael:1 -jobs 10 -seed 42`,
// round-tripped through the binary format — in process with 1 and 8
// workers, alternating for several rounds, and reports the median wall
// time of each (w1-ms, w8-ms) and their ratio (speedup). Timing
// RunFleet alone leaves out process start and the serial trace decode,
// so the ratio measures the worker pool. Both worker counts must
// produce the same report.
func BenchmarkFleetSpeedup(b *testing.B) {
	mix, err := fleet.ParseMix("sha:3,rijndael:1")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf)
	if _, err := fleet.Run(fleet.Config{
		Devices:   2000,
		Platforms: []string{"a7", "x86"},
		Mix:       mix,
		Governor:  "prediction",
		Jobs:      10,
		Seed:      42,
		Sink:      bw,
	}); err != nil {
		b.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		b.Fatal(err)
	}
	events, err := trace.ReadBinary(&buf)
	if err != nil {
		b.Fatal(err)
	}
	replayAt := func(workers int) ([]byte, time.Duration) {
		t0 := time.Now()
		res, err := replay.RunFleet(events, replay.FleetOptions{
			Plat:        platform.ODROIDXU3A7(),
			Seed:        1,
			TracedAlpha: 100,
			Workers:     workers,
		})
		wall := time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		var report bytes.Buffer
		res.WriteText(&report)
		return report.Bytes(), wall
	}

	// An untimed pass calibrates the switch tables, as the first
	// replay in a dvfsreplay process does.
	want, _ := replayAt(1)
	const rounds = 7
	var w1, w8 []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			for _, workers := range []int{1, 8} {
				report, wall := replayAt(workers)
				if !bytes.Equal(report, want) {
					b.Fatalf("report at %d workers differs from the 1-worker report", workers)
				}
				ms := float64(wall.Nanoseconds()) / 1e6
				if workers == 1 {
					w1 = append(w1, ms)
				} else {
					w8 = append(w8, ms)
				}
			}
		}
	}
	m1, m8 := medianOf(w1), medianOf(w8)
	b.ReportMetric(m1, "w1-ms")
	b.ReportMetric(m8, "w8-ms")
	b.ReportMetric(m1/m8, "speedup")
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
