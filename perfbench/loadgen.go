package main

import (
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// failedLatency stands in for the latency of a request that failed: it
// counts as missing every latency limit and sorts above every real one.
const failedLatency = time.Duration(math.MaxInt64)

// sample is one request's outcome.
type sample struct {
	lat time.Duration // failedLatency when the request failed
	ok  bool
	at  time.Duration // completion time since the phase started
}

// loadResult collects a load phase's samples.
type loadResult struct {
	samples  []sample
	lateness []time.Duration // open loop only: send time minus due time
	elapsed  time.Duration
}

func (lr *loadResult) failed() int {
	n := 0
	for _, s := range lr.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// latencies returns every sample's latency, failed ones included.
func (lr *loadResult) latencies() []time.Duration {
	out := make([]time.Duration, len(lr.samples))
	for i, s := range lr.samples {
		out[i] = s.lat
	}
	return out
}

// withinLimit counts the requests that succeeded within limit; a failed
// request never does.
func (lr *loadResult) withinLimit(limit time.Duration) int {
	n := 0
	for _, s := range lr.samples {
		if s.ok && s.lat <= limit {
			n++
		}
	}
	return n
}

// windowMedian splits the phase into n equal windows by completion
// time, applies f to each window's samples, and returns the median, so
// a burst of interference from the rest of the host that hits a few
// windows does not move the result.
func (lr *loadResult) windowMedian(n int, f func(w *loadResult) float64) float64 {
	wins := make([]loadResult, n)
	for i := range wins {
		wins[i].elapsed = lr.elapsed / time.Duration(n)
	}
	for _, s := range lr.samples {
		i := int(int64(s.at) * int64(n) / int64(lr.elapsed))
		if i >= n {
			i = n - 1
		}
		wins[i].samples = append(wins[i].samples, s)
	}
	vals := make([]float64, n)
	for i := range wins {
		vals[i] = f(&wins[i])
	}
	return median(vals)
}

// merge folds the per-worker results together.
func mergeLoad(parts []loadResult, elapsed time.Duration) loadResult {
	out := loadResult{elapsed: elapsed}
	for _, p := range parts {
		out.samples = append(out.samples, p.samples...)
		out.lateness = append(out.lateness, p.lateness...)
	}
	return out
}

// openLoop sends requests on a fixed schedule — request i is due at
// start + i/rate — for dur, from conns workers. A worker takes the next
// due request as soon as it is free, so when every worker is stuck the
// requests queue in the generator, and each one's latency is counted
// from when it was due: a stall is charged to every request queued
// behind it. do(w, i) performs request i on worker w and reports
// whether it succeeded.
func openLoop(rate float64, dur time.Duration, conns int, do func(w, i int) bool) loadResult {
	interval := time.Duration(float64(time.Second) / rate)
	n := int64(dur / interval)
	var next atomic.Int64
	parts := make([]loadResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int, part *loadResult) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				sent := time.Now()
				ok := do(w, int(i))
				done := time.Now()
				lat := done.Sub(due)
				if !ok {
					lat = failedLatency
				}
				part.samples = append(part.samples, sample{lat: lat, ok: ok, at: done.Sub(start)})
				part.lateness = append(part.lateness, sent.Sub(due))
			}
		}(w, &parts[w])
	}
	wg.Wait()
	return mergeLoad(parts, time.Since(start))
}

// sleepUntil blocks until t. It sleeps in nanosleep(2) rather than
// time.Sleep: the runtime's timers wake up to a millisecond late on
// some hosts, longer than the interval between open-loop requests, and
// that lateness would be charged to the server.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(time.Until(t))
			return
		}
	}
}

// closedLoop runs conns workers that each send their next request as
// soon as the previous one completes, until dur has passed. Requests
// are numbered in the order workers claim them.
func closedLoop(dur time.Duration, conns int, do func(w, i int) bool) loadResult {
	var next atomic.Int64
	parts := make([]loadResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int, part *loadResult) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				t0 := time.Now()
				ok := do(w, int(i))
				done := time.Now()
				lat := done.Sub(t0)
				if !ok {
					lat = failedLatency
				}
				part.samples = append(part.samples, sample{lat: lat, ok: ok, at: done.Sub(start)})
			}
		}(w, &parts[w])
	}
	wg.Wait()
	return mergeLoad(parts, time.Since(start))
}
