package analysis

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/features"
	"repro/internal/instrument"
	"repro/internal/slicer"
	"repro/internal/taskir"
)

// Differential harness (the dynamic half of slice verification): over
// hundreds of random programs, the verified slice must reproduce the
// instrumented program's feature values for the FIDs it claims to
// compute, and must never mutate shared global state. This is the
// end-to-end check that the static VerifySlice guarantees actually
// hold at run time.
func TestDifferentialFullVsSliceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	const programs = 250
	for trial := 0; trial < programs; trial++ {
		p := taskir.RandomProgram(rng)
		ip := instrument.Instrument(p)

		// Alternate between the full feature set and a random subset,
		// mirroring what Lasso-driven selection feeds the slicer.
		need := map[int]bool(nil)
		if trial%2 == 1 && len(ip.Sites) > 0 {
			need = map[int]bool{}
			for _, s := range ip.Sites {
				if rng.Intn(2) == 0 {
					need[s.FID] = true
				}
			}
		}
		sl := slicer.Extract(ip, need)
		rep, err := VerifySlice(ip, sl)
		if err != nil {
			t.Fatalf("trial %d: VerifySlice rejected the slicer's own output: %v\n%s",
				trial, err, taskir.Format(ip.Prog))
		}

		for run := 0; run < 3; run++ {
			globals := map[string]int64{"g0": rng.Int63n(20) - 5, "g1": rng.Int63n(20) - 5}
			params := map[string]int64{
				"p0": rng.Int63n(30) - 5,
				"p1": rng.Int63n(30) - 5,
				"p2": rng.Int63n(30) - 5,
			}

			fullTr := features.NewTrace()
			fullEnv := taskir.NewEnv(copyGlobals(globals))
			fullEnv.SetParams(params)
			if _, err := taskir.Run(ip.Prog, fullEnv, taskir.RunOptions{Recorder: fullTr}); err != nil {
				t.Fatalf("trial %d: full run: %v", trial, err)
			}

			before := copyGlobals(globals)
			sliceTr := features.NewTrace()
			sliceW, err := sl.Run(globals, params, sliceTr)
			if err != nil {
				t.Fatalf("trial %d: slice run: %v", trial, err)
			}
			if !reflect.DeepEqual(globals, before) {
				t.Fatalf("trial %d: slice mutated shared globals: %v -> %v", trial, before, globals)
			}

			// Every FID the report claims must agree with the full run.
			for _, fid := range rep.NeededFIDs {
				if sliceTr.Count(fid) != fullTr.Count(fid) {
					t.Fatalf("trial %d run %d: FID %d count %d, full %d\n%s",
						trial, run, fid, sliceTr.Count(fid), fullTr.Count(fid), taskir.Format(sl.Prog))
				}
				if !reflect.DeepEqual(sliceTr.CallAddrs()[fid], fullTr.CallAddrs()[fid]) {
					t.Fatalf("trial %d run %d: FID %d addrs %v, full %v",
						trial, run, fid, sliceTr.CallAddrs()[fid], fullTr.CallAddrs()[fid])
				}
			}

			// Cost-bound soundness: with the actual inputs as point
			// intervals, a finite static bound must cover the measured
			// interpreter work of the slice.
			bounds := map[string]Interval{}
			for k, v := range params {
				bounds[k] = Point(v)
			}
			for k, v := range before {
				bounds[k] = Point(v)
			}
			if b := BoundCost(sl.Prog, bounds); b.Finite() && b.CPUWork() < sliceW.CPU-1e-6 {
				t.Fatalf("trial %d run %d: static bound %.1f CPU below measured %.1f\n%s",
					trial, run, b.CPUWork(), sliceW.CPU, taskir.Format(sl.Prog))
			}
		}
	}
}

// Regression: a program whose features depend on a chain through
// global writes keeps those assignments in the slice, yet running the
// slice must leave the caller's global map untouched (Env.Freeze
// isolation) while still computing the right trip count.
func TestSliceOfGlobalWritingProgramIsolated(t *testing.T) {
	p := &taskir.Program{
		Name:    "gwrite",
		Params:  []string{"n"},
		Globals: map[string]int64{"cursor": 0},
		Body: []taskir.Stmt{
			&taskir.Assign{Dst: "cursor", Expr: taskir.Add(taskir.Var("cursor"), taskir.Var("n"))},
			&taskir.Loop{ID: 1, Count: taskir.Var("cursor"), Body: []taskir.Stmt{
				&taskir.Compute{Work: 100},
			}},
		},
	}
	ip := instrument.Instrument(p)
	sl := slicer.Extract(ip, nil)
	rep, err := VerifySlice(ip, sl)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.GlobalsWritten; len(got) != 1 || got[0] != "cursor" {
		t.Fatalf("GlobalsWritten = %v, want [cursor] (kept for the feature chain)", got)
	}
	globals := map[string]int64{"cursor": 3}
	tr := features.NewTrace()
	if _, err := sl.Run(globals, map[string]int64{"n": 4}, tr); err != nil {
		t.Fatal(err)
	}
	if globals["cursor"] != 3 {
		t.Fatalf("slice mutated shared global: cursor = %d, want 3", globals["cursor"])
	}
	// The loop feature is the trip count using the *updated* cursor.
	var loopFID = -1
	for _, s := range ip.Sites {
		if s.Kind == instrument.KindLoop {
			loopFID = s.FID
		}
	}
	if tr.Count(loopFID) != 7 {
		t.Fatalf("loop feature = %d, want 7 (3+4)", tr.Count(loopFID))
	}
}

func copyGlobals(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
