package slicer

import (
	"testing"

	"repro/internal/features"
	"repro/internal/instrument"
	"repro/internal/workload"
)

// sliceRunAllocBound is the most a Slice.Run call may allocate. The run
// borrows its frame from the compiled slice's pool and reads globals
// and params once, into integer slots, so nothing it does allocates;
// a reused feature trace keeps its map buckets across Reset. Wired into
// `make alloc-gate`.
const sliceRunAllocBound = 0

// TestSliceRunAllocs holds slice evaluation to a constant allocation
// count, measured separately on the job that executes the fewest slice
// statements and on the one that executes the most, so a per-statement
// allocation cannot hide in an average.
func TestSliceRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	for _, name := range []string{"ldecode", "pocketsphinx"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sl := Extract(instrument.Instrument(w.Prog), nil)
		globals := w.FreshGlobals()
		gen := w.NewGen(3)
		tr := features.NewTrace()
		var small, large map[string]int64
		var fewest, most int64
		for i := 0; i < 24; i++ {
			params := gen.Next(i)
			tr.Reset()
			wk, err := sl.Run(globals, params, tr)
			if err != nil {
				t.Fatal(err)
			}
			if small == nil || wk.Stmts < fewest {
				small, fewest = params, wk.Stmts
			}
			if large == nil || wk.Stmts > most {
				large, most = params, wk.Stmts
			}
		}
		if most < 2*fewest {
			t.Fatalf("%s: jobs span only %d..%d slice statements; the gate needs a wider range", name, fewest, most)
		}
		for _, job := range []struct {
			params map[string]int64
			stmts  int64
		}{{small, fewest}, {large, most}} {
			allocs := testing.AllocsPerRun(200, func() {
				tr.Reset()
				if _, err := sl.Run(globals, job.params, tr); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %d slice statements, %.1f allocs per Slice.Run", name, job.stmts, allocs)
			if allocs > sliceRunAllocBound {
				t.Errorf("%s: Slice.Run executing %d statements allocated %.1f times per call, bound %d",
					name, job.stmts, allocs, sliceRunAllocBound)
			}
		}
	}
}
