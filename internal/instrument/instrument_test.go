package instrument_test

import (
	"testing"

	"repro/internal/features"
	"repro/internal/instrument"
	"repro/internal/taskir"
)

// demo builds a small task with a branch, a loop nest, and an indirect
// call, plus global state the body updates.
func demo() *taskir.Program {
	return &taskir.Program{
		Name:    "demo",
		Params:  []string{"n", "mode"},
		Globals: map[string]int64{"state": 0},
		Body: []taskir.Stmt{
			&taskir.Assign{Dst: "work", Expr: taskir.Add(taskir.Var("n"), taskir.Var("state"))},
			&taskir.If{ID: 1, Cond: taskir.GT(taskir.Var("mode"), taskir.Const(0)),
				Then: []taskir.Stmt{
					&taskir.Loop{ID: 2, Count: taskir.Var("work"), IndexVar: "i", Body: []taskir.Stmt{
						&taskir.Compute{Label: "inner", Work: 100, MemNS: 10},
					}},
				},
				Else: []taskir.Stmt{
					&taskir.Compute{Label: "cheap", Work: 5},
				}},
			&taskir.Call{ID: 3, Target: taskir.Var("mode"), Funcs: map[int64][]taskir.Stmt{
				0: {&taskir.Compute{Label: "f0", Work: 10}},
				1: {&taskir.Compute{Label: "f1", Work: 50}},
			}},
			&taskir.Assign{Dst: "state", Expr: taskir.Add(taskir.Var("state"), taskir.Const(1))},
		},
	}
}

func TestInstrumentCreatesSites(t *testing.T) {
	ip := instrument.Instrument(demo())
	if len(ip.Sites) != 3 {
		t.Fatalf("sites = %d, want 3", len(ip.Sites))
	}
	wantKinds := []instrument.SiteKind{instrument.KindBranch, instrument.KindLoop, instrument.KindCall}
	wantCtrl := []int{1, 2, 3}
	for i, s := range ip.Sites {
		if s.FID != i || s.Kind != wantKinds[i] || s.CtrlID != wantCtrl[i] {
			t.Errorf("site[%d] = %+v", i, s)
		}
	}
	if _, ok := ip.Site(2); !ok {
		t.Errorf("Site(2) not found")
	}
	if _, ok := ip.Site(3); ok {
		t.Errorf("Site(3) should not exist")
	}
}

func TestInstrumentDoesNotMutateOriginal(t *testing.T) {
	p := demo()
	before := p.StmtCount()
	instrument.Instrument(p)
	if p.StmtCount() != before {
		t.Fatalf("original program mutated: %d -> %d statements", before, p.StmtCount())
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("original invalid after instrumentation: %v", err)
	}
}

func TestInstrumentedFeatureCounts(t *testing.T) {
	ip := instrument.Instrument(demo())
	env := taskir.NewEnv(map[string]int64{"state": 2})
	env.SetParams(map[string]int64{"n": 3, "mode": 1})
	tr := features.NewTrace()
	if _, err := taskir.Run(ip.Prog, env, taskir.RunOptions{Recorder: tr}); err != nil {
		t.Fatal(err)
	}
	// mode=1 → branch taken once; loop runs work = n+state = 5 times;
	// call dispatches to addr 1.
	if tr.Count(0) != 1 {
		t.Errorf("branch count = %d, want 1", tr.Count(0))
	}
	if tr.Count(1) != 5 {
		t.Errorf("loop count = %d, want 5", tr.Count(1))
	}
	if !tr.CallAddrs()[2][1] {
		t.Errorf("call addr 1 not recorded: %v", tr.CallAddrs())
	}
}

func TestInstrumentedNotTakenBranch(t *testing.T) {
	ip := instrument.Instrument(demo())
	env := taskir.NewEnv(map[string]int64{"state": 0})
	env.SetParams(map[string]int64{"n": 3, "mode": 0})
	tr := features.NewTrace()
	if _, err := taskir.Run(ip.Prog, env, taskir.RunOptions{Recorder: tr}); err != nil {
		t.Fatal(err)
	}
	if tr.Count(0) != 0 {
		t.Errorf("branch count = %d, want 0", tr.Count(0))
	}
	// Loop is inside the untaken branch: its hoisted counter must not
	// fire either.
	if tr.Count(1) != 0 {
		t.Errorf("loop count = %d, want 0", tr.Count(1))
	}
}

func TestInstrumentationPreservesSemantics(t *testing.T) {
	p := demo()
	ip := instrument.Instrument(p)
	for mode := int64(0); mode <= 1; mode++ {
		for n := int64(0); n < 8; n++ {
			gOrig := map[string]int64{"state": 4}
			gIns := map[string]int64{"state": 4}

			envO := taskir.NewEnv(gOrig)
			envO.SetParams(map[string]int64{"n": n, "mode": mode})
			wO, err := taskir.Run(p, envO, taskir.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}

			envI := taskir.NewEnv(gIns)
			envI.SetParams(map[string]int64{"n": n, "mode": mode})
			wI, err := taskir.Run(ip.Prog, envI, taskir.RunOptions{Recorder: features.NewTrace()})
			if err != nil {
				t.Fatal(err)
			}

			if gOrig["state"] != gIns["state"] {
				t.Fatalf("n=%d mode=%d: state diverged %d vs %d", n, mode, gOrig["state"], gIns["state"])
			}
			if wI.MemSec != wO.MemSec {
				t.Errorf("n=%d mode=%d: mem time changed %g vs %g", n, mode, wO.MemSec, wI.MemSec)
			}
			if wI.CPU < wO.CPU {
				t.Errorf("n=%d mode=%d: instrumented CPU %g < original %g", n, mode, wI.CPU, wO.CPU)
			}
		}
	}
}

func TestInstrumentNegativeLoopCountFeatureIsZero(t *testing.T) {
	p := &taskir.Program{
		Name:    "neg",
		Params:  []string{"n"},
		Globals: map[string]int64{},
		Body: []taskir.Stmt{
			&taskir.Loop{ID: 1, Count: taskir.Var("n"), Body: []taskir.Stmt{
				&taskir.Compute{Work: 1},
			}},
		},
	}
	ip := instrument.Instrument(p)
	env := taskir.NewEnv(map[string]int64{})
	env.SetParams(map[string]int64{"n": -5})
	tr := features.NewTrace()
	if _, err := taskir.Run(ip.Prog, env, taskir.RunOptions{Recorder: tr}); err != nil {
		t.Fatal(err)
	}
	if tr.Count(0) != 0 {
		t.Errorf("loop feature = %d for negative count, want 0", tr.Count(0))
	}
}

func TestSiteKindString(t *testing.T) {
	if instrument.KindBranch.String() != "branch" || instrument.KindLoop.String() != "loop" || instrument.KindCall.String() != "call" {
		t.Errorf("SiteKind strings wrong: %s %s %s", instrument.KindBranch, instrument.KindLoop, instrument.KindCall)
	}
}
