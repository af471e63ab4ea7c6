package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestDriftMonitorFlipsAndRecovers walks one workload's windowed
// under-prediction rate across the StaleUnderRate band the model_stale
// rule thresholds: healthy below it, drifted above it, recovered below
// half of it once the window has turned over.
func TestDriftMonitorFlipsAndRecovers(t *testing.T) {
	d := NewDriftMonitor()

	// A healthy stream: 1% under-prediction, matching the trained
	// α-quantile for α=100.
	for i := 0; i < 300; i++ {
		res := -0.001
		if i%100 == 0 {
			res = 0.002
		}
		d.Observe("ldecode", res)
	}
	if r := d.UnderRate("ldecode"); r > StaleUnderRate {
		t.Fatalf("healthy stream under rate %.4f above %.4f", r, StaleUnderRate)
	}

	// Drift: 20% under-prediction — far beyond 3/(1+α) ≈ 3%.
	for i := 0; i < 256; i++ {
		res := -0.001
		if i%5 == 0 {
			res = 0.002
		}
		d.Observe("ldecode", res)
	}
	if r := d.UnderRate("ldecode"); r <= StaleUnderRate {
		t.Fatalf("drifted stream under rate %.4f not above %.4f", r, StaleUnderRate)
	}

	// Recovery: over-predicting again for a whole window.
	for i := 0; i < 256; i++ {
		d.Observe("ldecode", -0.001)
	}
	if r := d.UnderRate("ldecode"); r >= StaleUnderRate/2 {
		t.Fatalf("recovered stream under rate %.4f not below %.4f", r, StaleUnderRate/2)
	}

	if ws := d.Workloads(); len(ws) != 1 || ws[0] != "ldecode" {
		t.Errorf("workloads = %v", ws)
	}
}

func TestDriftMonitorQuantilesAndIsolation(t *testing.T) {
	d := NewDriftMonitor()
	if !math.IsNaN(d.Quantile("none", 0.5)) || !math.IsNaN(d.UnderRate("none")) {
		t.Fatal("unknown workload should report NaN")
	}
	for i := 1; i <= 64; i++ {
		d.Observe("a", float64(i))
		d.Observe("b", -1)
	}
	if p := d.Quantile("a", 0.5); p < 30 || p > 35 {
		t.Errorf("p50(a) = %g, want ≈ 32.5", p)
	}
	if r := d.UnderRate("b"); r != 0 {
		t.Errorf("workload b leaked under-predictions: %g", r)
	}
	if r := d.UnderRate("a"); r != 1 {
		t.Errorf("workload a under rate = %g, want 1", r)
	}
}

// The monitor is shared between the request path (Observe) and the
// metrics/debug paths (UnderRates, UnderRate, Quantile, Workloads); all four
// must be safe to call concurrently. Run under -race.
func TestDriftMonitorConcurrent(t *testing.T) {
	d := NewDriftMonitor()
	workloads := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w := workloads[(g+i)%len(workloads)]
				d.Observe(w, float64(i%7)-3)
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w := workloads[(g+i)%len(workloads)]
				d.UnderRates()
				d.UnderRate(w)
				d.Quantile(w, 0.5)
				d.Workloads()
			}
		}(g)
	}
	wg.Wait()
	for _, w := range workloads {
		if n := d.Quantile(w, 0.5); math.IsNaN(n) {
			t.Errorf("workload %s unobserved after concurrent run", w)
		}
	}
}

// TestDriftMonitorMeasurementPinned pins the under-prediction rate and
// residual quantiles on a seeded residual stream that runs past the
// 256-residual window: a change to the window must not move them.
func TestDriftMonitorMeasurementPinned(t *testing.T) {
	d := NewDriftMonitor()
	rng := rand.New(rand.NewSource(1))
	type pin struct{ under, p50, p95 float64 }
	checkpoints := map[int]pin{
		100:  {under: 0.02, p50: -0.001901879951397766, p95: -0.00026386131958926917},
		1000: {under: 0.265625, p50: -0.0005736225371025178, p95: 0.0011468281732904314},
	}
	for i := 1; i <= 1000; i++ {
		mean := -0.002
		if i > 600 {
			mean = -0.0005
		}
		d.Observe("w", mean+0.001*rng.NormFloat64())
		want, ok := checkpoints[i]
		if !ok {
			continue
		}
		got := pin{d.UnderRate("w"), d.Quantile("w", 0.5), d.Quantile("w", 0.95)}
		if got != want {
			t.Errorf("after %d residuals: got %#v, want %#v", i, got, want)
		}
	}
}
