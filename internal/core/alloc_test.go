package core

import (
	"testing"

	"repro/internal/features"
	"repro/internal/governor"
	"repro/internal/workload"
)

// TestPredictTraceZeroAlloc is the runtime half of the hotpathalloc
// guarantee: dvfsvet proves statically that the //dvfs:hotpath
// decision path contains no allocation sites, and this gate proves the
// compiler agrees — the whole prediction (vectorize into the stack
// buffer, two model evaluations, level selection, feature hash) runs
// without touching the heap. ROADMAP item 2; wired into `make
// alloc-gate` and CI.
func TestPredictTraceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	w := workload.SHA()
	c, err := Build(w, Config{ProfileJobs: 60, ProfileSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gen := w.NewGen(3)
	globals := w.FreshGlobals()
	params := gen.Next(0)
	tr := features.NewTrace()
	if _, err := c.Slice.Run(globals, params, tr); err != nil {
		t.Fatal(err)
	}
	cur := c.Plat.MaxLevel()
	if dim := c.Schema.Dim(); dim > vecStackDim {
		t.Fatalf("schema dim %d exceeds vecStackDim %d; the stack fast path is dead", dim, vecStackDim)
	}

	// One warm-up decision, then the measured runs.
	c.PredictTrace(tr, params, w.DefaultBudgetSec, 0, cur)
	allocs := testing.AllocsPerRun(200, func() {
		c.PredictTrace(tr, params, w.DefaultBudgetSec, 0, cur)
	})
	if allocs != 0 {
		t.Fatalf("PredictTrace allocated %.1f times per run; the decision path must be allocation-free", allocs)
	}
}

// TestJobStartZeroAlloc extends the gate to the whole untraced
// decision: JobStart borrows a pooled feature trace, runs the
// prediction slice into it and predicts from it, so a decision
// allocates nothing, on the short ldecode and sha slices and on
// pocketsphinx's nested-loop one. Wired into `make alloc-gate`.
func TestJobStartZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	for _, name := range []string{"ldecode", "pocketsphinx", "sha"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Build(w, Config{ProfileJobs: 60, ProfileSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		gen := w.NewGen(3)
		job := &governor.Job{
			Params:             gen.Next(0),
			Globals:            w.FreshGlobals(),
			DeadlineSec:        w.DefaultBudgetSec,
			RemainingBudgetSec: w.DefaultBudgetSec,
		}
		cur := c.Plat.MaxLevel()
		c.JobStart(job, cur) // warm the trace pool and the slice's frame pool
		allocs := testing.AllocsPerRun(100, func() {
			c.JobStart(job, cur)
		})
		if allocs != 0 {
			t.Errorf("%s: JobStart allocated %.1f times per decision; the untraced decision must be allocation-free", name, allocs)
		}
	}
}
