package main

import (
	"testing"
	"time"
)

// TestOpenLoopChargesStallToQueuedRequests stalls one request on
// purpose: with one connection, every request that fell due during the
// stall waits behind it, and its latency, counted from when it was due,
// includes that wait.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 40 * time.Millisecond
	res := openLoop(1000, 100*time.Millisecond, 1, func(_, i int) bool {
		if i == 10 {
			time.Sleep(stall)
		}
		return true
	})
	if len(res.samples) != 100 || len(res.lateness) != 100 {
		t.Fatalf("got %d samples, %d lateness values; want 100 each", len(res.samples), len(res.lateness))
	}
	// With one connection requests complete in index order.
	if lat := res.samples[10].lat; lat < stall {
		t.Errorf("stalled request latency %v < stall %v", lat, stall)
	}
	if lat := res.samples[11].lat; lat < stall-5*time.Millisecond {
		t.Errorf("request due 1 ms after the stall began took %v; the stall was not charged to it", lat)
	}
	if late := res.lateness[11]; late < stall-5*time.Millisecond {
		t.Errorf("request queued behind the stall reports lateness %v", late)
	}
	queued := 0
	for _, s := range res.samples[11:] {
		if s.lat >= 10*time.Millisecond {
			queued++
		}
	}
	if queued < 20 {
		t.Errorf("only %d requests behind the stall saw ≥10 ms latency; want the ~30 that fell due during it", queued)
	}
}

func TestOpenLoopReportsLateness(t *testing.T) {
	res := openLoop(500, 60*time.Millisecond, 2, func(_, _ int) bool { return true })
	if len(res.lateness) != len(res.samples) || len(res.samples) != 30 {
		t.Fatalf("got %d samples, %d lateness values; want 30 each", len(res.samples), len(res.lateness))
	}
	for i, l := range res.lateness {
		if l < 0 {
			t.Fatalf("request %d sent %v before it was due", i, -l)
		}
	}
}

func TestFailedRequestsMissTheLimit(t *testing.T) {
	res := closedLoop(20*time.Millisecond, 2, func(_, i int) bool { return i%2 == 0 })
	n := len(res.samples)
	if n < 4 {
		t.Fatalf("closed loop ran only %d requests", n)
	}
	if res.failed() == 0 || res.failed() > n/2+1 {
		t.Fatalf("failed = %d of %d; want about half", res.failed(), n)
	}
	if got := res.withinLimit(time.Hour); got != n-res.failed() {
		t.Fatalf("withinLimit(1h) = %d; want only the %d successes", got, n-res.failed())
	}
	for _, s := range res.samples {
		if !s.ok && s.lat != failedLatency {
			t.Fatalf("failed request recorded latency %v", s.lat)
		}
	}
	// Failures sort above every real latency, so they lift the tail.
	d := durDist(res.latencies(), time.Millisecond)
	if top := d.xs[d.n()-1]; top != float64(failedLatency)/float64(time.Millisecond) {
		t.Fatalf("largest latency %v ms is not a failure", top)
	}
}

func TestWindowMedianIgnoresABurst(t *testing.T) {
	lr := loadResult{elapsed: 8 * time.Second}
	for i := 0; i < 800; i++ {
		lat := time.Millisecond
		if i < 100 { // the first window is ten times slower
			lat = 10 * time.Millisecond
		}
		lr.samples = append(lr.samples, sample{lat: lat, ok: true, at: time.Duration(i) * 10 * time.Millisecond})
	}
	got := lr.windowMedian(8, func(w *loadResult) float64 {
		if len(w.samples) != 100 || w.elapsed != time.Second {
			t.Errorf("window has %d samples over %v; want 100 over 1s", len(w.samples), w.elapsed)
		}
		v, _ := durDist(w.latencies(), time.Millisecond).pct(0.5)
		return v
	})
	if got != 1 {
		t.Fatalf("window median = %v ms, want 1", got)
	}
}
