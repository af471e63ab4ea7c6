package obs

import (
	"math/rand"
	"testing"
)

func TestSLOTrackerSnapshot(t *testing.T) {
	s := NewSLOTracker(SLOConfig{Target: 0.01})
	for i := 0; i < 16; i++ {
		s.Observe("b", i%2 == 0) // 50% misses
		s.Observe("a", false)
	}
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Workload != "a" || snap[1].Workload != "b" {
		t.Fatalf("snapshot not sorted by workload: %+v", snap)
	}
	if snap[1].MissRate != 0.5 || snap[1].Jobs != 16 || snap[1].Misses != 8 {
		t.Fatalf("status b = %+v, want 8/16 missed", snap[1])
	}
	if snap[0].FastBurn != 0 || snap[0].SlowBurn != 0 {
		t.Fatalf("healthy burn = %g/%g, want 0/0", snap[0].FastBurn, snap[0].SlowBurn)
	}
	if snap[1].FastBurn != 50 || snap[1].SlowBurn != 50 {
		t.Fatalf("burning burn = %g/%g, want 50/50", snap[1].FastBurn, snap[1].SlowBurn)
	}
}

func TestSLOTrackerUnknownWorkload(t *testing.T) {
	s := NewSLOTracker(SLOConfig{})
	if _, ok := s.Status("nope"); ok {
		t.Fatal("Status ok for never-observed workload")
	}
	if got := s.Target(); got != 0.01 {
		t.Fatalf("default target = %g, want 0.01", got)
	}
}

func TestTracerFeedsSLO(t *testing.T) {
	s := NewSLOTracker(SLOConfig{Target: 0.01})
	tr := NewTracer(TracerOptions{SLO: s})
	for i := 0; i < 10; i++ {
		p := tr.Begin(DecisionEvent{Workload: "ldecode", Job: i})
		p.End(0.01, i%2 == 0)
	}
	// A one-shot (not Done) event must not count.
	tr.Emit(DecisionEvent{Workload: "ldecode", Job: 99})
	st, ok := tr.SLO().Status("ldecode")
	if !ok || st.Jobs != 10 || st.Misses != 5 {
		t.Fatalf("status = %+v, ok=%v", st, ok)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSLOTrackerMeasurementPinned pins the tracker's numbers on a
// seeded outcome stream that runs past both windows (128 and 2048
// jobs): a change to the window arithmetic must not move any of them.
func TestSLOTrackerMeasurementPinned(t *testing.T) {
	s := NewSLOTracker(SLOConfig{Target: 0.01})
	rng := rand.New(rand.NewSource(1))
	type pin struct {
		jobs, misses         int64
		missRate, fast, slow float64
	}
	checkpoints := map[int]pin{
		1000: {jobs: 1000, misses: 7, missRate: 0.007, fast: 0, slow: 0.7},
		3000: {jobs: 3000, misses: 66, missRate: 0.022, fast: 5.46875, slow: 2.880859375},
		5000: {jobs: 5000, misses: 77, missRate: 0.0154, fast: 0, slow: 0.732421875},
	}
	for i := 1; i <= 5000; i++ {
		p := 0.005
		if i > 1500 && i < 3200 {
			p = 0.04
		}
		s.Observe("w", rng.Float64() < p)
		want, ok := checkpoints[i]
		if !ok {
			continue
		}
		st, _ := s.Status("w")
		got := pin{st.Jobs, st.Misses, st.MissRate, st.FastBurn, st.SlowBurn}
		if got != want {
			t.Errorf("after %d jobs: got %#v, want %#v", i, got, want)
		}
	}
}
