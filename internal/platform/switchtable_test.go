package platform

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// sortedSwitchTable is the reference microbenchmark: the same samples
// as MeasureSwitchTable, with each pair's quantile read off a fully
// sorted copy.
func sortedSwitchTable(p *Platform, samples int, q float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	n := p.NumLevels()
	out := make([][]float64, n)
	buf := make([]float64, samples)
	for from := 0; from < n; from++ {
		out[from] = make([]float64, n)
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			for s := 0; s < samples; s++ {
				buf[s] = p.SampleSwitchLatency(p.Levels[from], p.Levels[to], rng)
			}
			sort.Float64s(buf)
			out[from][to] = buf[int(q*float64(samples-1))]
		}
	}
	return out
}

// equalTable fails at the first cell where tbl differs from want.
func equalTable(t *testing.T, tbl *SwitchTable, want [][]float64) {
	t.Helper()
	for from := range want {
		for to := range want[from] {
			if got := tbl.Lookup(from, to); got != want[from][to] {
				t.Fatalf("(%d,%d) = %v, sorted reference %v", from, to, got, want[from][to])
			}
		}
	}
}

// Selection picks exactly the element the sort did, so the table is
// bit-identical to the sort-based microbenchmark it replaced.
func TestSwitchTableMatchesSortedReference(t *testing.T) {
	for _, p := range []*Platform{ODROIDXU3A7(), ODROIDXU3A15(), IntelI7(), BigLITTLE()} {
		for _, seed := range []int64{1, 5, 11, 98, 1001, 2001, 2042} {
			equalTable(t, MeasureSwitchTable(p, 500, 0.95, seed), sortedSwitchTable(p, 500, 0.95, seed))
		}
	}
	p := ODROIDXU3A7()
	for _, c := range []struct {
		samples int
		q       float64
	}{{1, 0.95}, {2, 0.5}, {7, 0}, {50, 1}, {101, 0.5}, {300, 0.99}} {
		equalTable(t, MeasureSwitchTable(p, c.samples, c.q, 3), sortedSwitchTable(p, c.samples, c.q, 3))
	}
}

func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(8)) // many ties
		}
		want := append([]float64(nil), a...)
		sort.Float64s(want)
		k := rng.Intn(n)
		if got := selectKth(a, k); got != want[k] {
			t.Fatalf("selectKth(%v, %d) = %v, want %v", want, k, got, want[k])
		}
	}
}

// The memo keys on what the table depends on, never on the pointer:
// fresh ByName platforms share one table, any changed input gets its
// own.
func TestSwitchTableMemo(t *testing.T) {
	byName := func() *Platform {
		p, err := ByName("a7")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := MeasureSwitchTable(byName(), 500, 0.95, 2001)
	if b := MeasureSwitchTable(byName(), 500, 0.95, 2001); b != a {
		t.Fatal("two ByName(\"a7\") platforms got different tables")
	}
	for name, other := range map[string]*SwitchTable{
		"seed":    MeasureSwitchTable(byName(), 500, 0.95, 2002),
		"samples": MeasureSwitchTable(byName(), 499, 0.95, 2001),
		"q":       MeasureSwitchTable(byName(), 500, 0.9, 2001),
	} {
		if other == a {
			t.Errorf("a different %s got the cached table", name)
		}
	}

	base := byName()
	base.SwitchBaseSec *= 2
	if got := MeasureSwitchTable(base, 500, 0.95, 2001); got == a || got.Lookup(0, 1) == a.Lookup(0, 1) {
		t.Error("a changed SwitchBaseSec got the cached table")
	} else {
		equalTable(t, got, sortedSwitchTable(base, 500, 0.95, 2001))
	}
	volt := byName()
	volt.Levels[6].Volt += 0.05
	if got := MeasureSwitchTable(volt, 500, 0.95, 2001); got == a || got.Lookup(5, 6) == a.Lookup(5, 6) {
		t.Error("a changed level voltage got the cached table")
	} else {
		equalTable(t, got, sortedSwitchTable(volt, 500, 0.95, 2001))
	}
	// The edited grid displaced the entry; the stock grid measures
	// again, to the same values.
	equalTable(t, MeasureSwitchTable(byName(), 500, 0.95, 2001), sortedSwitchTable(byName(), 500, 0.95, 2001))
}

// Overflow restarts the memo rather than growing it, and every table
// stays correct across the restart.
func TestSwitchTableMemoBounded(t *testing.T) {
	p := IntelI7()
	for seed := int64(0); seed < 3*switchMemoCap; seed++ {
		equalTable(t, MeasureSwitchTable(p, 5, 0.95, 7000+seed), sortedSwitchTable(p, 5, 0.95, 7000+seed))
		switchMemo.RLock()
		size := len(switchMemo.m)
		switchMemo.RUnlock()
		if size > switchMemoCap {
			t.Fatalf("memo holds %d entries, cap %d", size, switchMemoCap)
		}
	}
}

// Concurrent callers (replay's fleet workers) may race on a cold entry;
// run under -race this checks the memo's locking, and every caller
// must still get the reference table.
func TestMeasureSwitchTableConcurrent(t *testing.T) {
	names := []string{"a7", "x86", "biglittle"}
	seeds := []int64{3001, 3002}
	type calib struct {
		name string
		seed int64
	}
	want := map[calib][][]float64{}
	for _, name := range names {
		p, _ := ByName(name)
		for _, seed := range seeds {
			want[calib{name, seed}] = sortedSwitchTable(p, 200, 0.95, seed)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				name := names[(w+i)%len(names)]
				seed := seeds[(w/3+i)%len(seeds)]
				p, _ := ByName(name)
				tbl := MeasureSwitchTable(p, 200, 0.95, seed)
				ref := want[calib{name, seed}]
				for from := range ref {
					for to := range ref[from] {
						if tbl.Lookup(from, to) != ref[from][to] {
							errs <- name
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("a concurrent %s table differs from the reference", name)
	}
}
