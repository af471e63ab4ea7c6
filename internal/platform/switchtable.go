package platform

import (
	"math/rand"
	"sync"
)

// SwitchTable holds per-transition DVFS switch-time estimates, indexed
// [from][to]. The paper microbenchmarks every (start, end) frequency
// pair and uses the 95th-percentile times "to be conservative ...
// while omitting rare outliers" (§3.4, Fig 11).
//
// A table is read-only once built: MeasureSwitchTable hands the same
// instance to every caller that asks for the same calibration.
type SwitchTable struct {
	seconds [][]float64
	max     float64
}

// newSwitchTable wraps a filled [from][to] matrix, computing Max once.
func newSwitchTable(seconds [][]float64) *SwitchTable {
	t := &SwitchTable{seconds: seconds}
	for _, row := range seconds {
		for _, v := range row {
			if v > t.max {
				t.max = v
			}
		}
	}
	return t
}

// Lookup returns the estimated latency from level index `from` to `to`.
func (t *SwitchTable) Lookup(from, to int) float64 {
	return t.seconds[from][to]
}

// Max returns the largest entry, a conservative bound used when the
// destination level is not yet known.
func (t *SwitchTable) Max() float64 { return t.max }

// MeasureSwitchTable microbenchmarks the platform's DVFS transitions:
// it samples every (from, to) pair `samples` times and records the
// q-quantile (the paper uses q = 0.95). It reproduces Fig 11.
//
// The table is a pure function of the platform's latency model and
// (samples, q, seed), so like the paper's offline calibration it is
// measured once per process and shared: later calls with the same
// inputs return the same read-only table. Platforms are matched by
// value, not pointer, so the fresh copies ByName builds share too.
func MeasureSwitchTable(p *Platform, samples int, q float64, seed int64) *SwitchTable {
	key := switchKey{
		name: p.Name, base: p.SwitchBaseSec, perVolt: p.SwitchPerVolt,
		cluster: p.SwitchClusterSec, sigma: p.SwitchJitterSigma,
		samples: samples, q: q, seed: seed,
	}
	switchMemo.RLock()
	e, ok := switchMemo.m[key]
	switchMemo.RUnlock()
	if ok && e.matches(p.Levels) {
		return e.table
	}
	// Racing workers may both compute a missing entry; the result is
	// deterministic, so whichever store lands last is equivalent.
	e = switchEntry{levels: switchShapes(p.Levels), table: measureSwitchTable(p, samples, q, seed)}
	switchMemo.Lock()
	if len(switchMemo.m) >= switchMemoCap {
		clear(switchMemo.m)
	}
	switchMemo.m[key] = e
	switchMemo.Unlock()
	return e.table
}

// switchMemoCap bounds the memo; seeds come from callers (a daemon's
// training requests among them), so an unbounded map could grow
// without limit. Overflow starts the memo afresh.
const switchMemoCap = 64

var switchMemo = struct {
	sync.RWMutex
	m map[switchKey]switchEntry
}{m: map[switchKey]switchEntry{}}

// switchKey is a calibration's identity apart from the level grid:
// the platform's name and switch-latency parameters, and the
// microbenchmark's inputs. A comparable struct hashes in nanoseconds,
// unlike any formatted-string key.
type switchKey struct {
	name                          string
	base, perVolt, cluster, sigma float64
	samples                       int
	q                             float64
	seed                          int64
}

// switchShape is the part of a Level the latency model reads.
type switchShape struct {
	index   int
	volt    float64
	cluster string
}

type switchEntry struct {
	levels []switchShape
	table  *SwitchTable
}

func switchShapes(levels []Level) []switchShape {
	out := make([]switchShape, len(levels))
	for i, l := range levels {
		out[i] = switchShape{l.Index, l.Volt, l.Cluster}
	}
	return out
}

// matches reports whether levels has the grid the entry was measured
// on, so a same-named platform with edited levels is a miss.
func (e switchEntry) matches(levels []Level) bool {
	if len(levels) != len(e.levels) {
		return false
	}
	for i, l := range levels {
		if e.levels[i] != (switchShape{l.Index, l.Volt, l.Cluster}) {
			return false
		}
	}
	return true
}

// measureSwitchTable is the uncached microbenchmark. Each pair keeps
// the order statistic at int(q·(samples−1)), found by selection: the
// element a full sort would put there, at linear instead of n log n
// cost.
func measureSwitchTable(p *Platform, samples int, q float64, seed int64) *SwitchTable {
	rng := rand.New(rand.NewSource(seed))
	n := p.NumLevels()
	seconds := make([][]float64, n)
	buf := make([]float64, samples)
	idx := int(q * float64(samples-1))
	for from := 0; from < n; from++ {
		seconds[from] = make([]float64, n)
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			for s := 0; s < samples; s++ {
				buf[s] = p.SampleSwitchLatency(p.Levels[from], p.Levels[to], rng)
			}
			seconds[from][to] = selectKth(buf, idx)
		}
	}
	return newSwitchTable(seconds)
}

// selectKth permutes a so that a[k] holds the value an ascending sort
// would put at index k, and returns it (Wirth's selection by Hoare
// partitioning, expected linear time). The samples are finite, so
// equal values are interchangeable and the result is exactly the
// sorted element.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		x := a[k]
		i, j := lo, hi
		for i <= j {
			for a[i] < x {
				i++
			}
			for x < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
	return a[k]
}

// MeanSwitchTable builds a table of analytic mean latencies, the
// non-conservative alternative ablated against the 95th-percentile
// table.
func MeanSwitchTable(p *Platform) *SwitchTable {
	n := p.NumLevels()
	seconds := make([][]float64, n)
	for from := 0; from < n; from++ {
		seconds[from] = make([]float64, n)
		for to := 0; to < n; to++ {
			seconds[from][to] = p.MeanSwitchLatency(p.Levels[from], p.Levels[to])
		}
	}
	return newSwitchTable(seconds)
}
