package analysis

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/instrument"
	"repro/internal/slicer"
	"repro/internal/taskir"
	"repro/internal/workload"
)

// ---- CFG ----

func TestCFGStructure(t *testing.T) {
	p := &taskir.Program{
		Name:   "shapes",
		Params: []string{"n"},
		Body: []taskir.Stmt{
			&taskir.Assign{Dst: "x", Expr: taskir.Const(1)},
			&taskir.If{ID: 1, Cond: taskir.GT(taskir.Var("n"), taskir.Const(0)),
				Then: []taskir.Stmt{&taskir.Assign{Dst: "x", Expr: taskir.Const(2)}},
				Else: []taskir.Stmt{&taskir.Assign{Dst: "x", Expr: taskir.Const(3)}}},
			&taskir.Loop{ID: 2, Count: taskir.Var("n"), IndexVar: "i", Body: []taskir.Stmt{
				&taskir.Assign{Dst: "x", Expr: taskir.Add(taskir.Var("x"), taskir.Var("i"))},
			}},
		},
	}
	cfg := BuildCFG(p.Body)
	if len(cfg.Blocks[cfg.Entry].Stmts) != 0 {
		t.Errorf("entry block not empty: %v", cfg.Blocks[cfg.Entry].Stmts)
	}
	if len(cfg.BackEdges) != 1 {
		t.Errorf("want 1 back edge for the loop, got %v", cfg.BackEdges)
	}
	// Exit must be reachable from the entry.
	seen := map[int]bool{}
	stack := []int{cfg.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, cfg.Blocks[b].Succs...)
	}
	if !seen[cfg.Exit] {
		t.Error("exit unreachable from entry")
	}
	// Every non-entry block must have a predecessor.
	for _, blk := range cfg.Blocks {
		if blk.ID != cfg.Entry && len(blk.Preds) == 0 {
			t.Errorf("block %d has no predecessors", blk.ID)
		}
	}
}

// ---- reaching definitions / undefined reads ----

func TestMayUndefinedDetectsBranchOnlyDef(t *testing.T) {
	p := &taskir.Program{
		Name:   "partial",
		Params: []string{"mode"},
		Body: []taskir.Stmt{
			&taskir.If{ID: 1, Cond: taskir.GT(taskir.Var("mode"), taskir.Const(0)),
				Then: []taskir.Stmt{&taskir.Assign{Dst: "tmp", Expr: taskir.Const(7)}}},
			// tmp is undefined when mode <= 0.
			&taskir.Assign{Dst: "out", Expr: taskir.Var("tmp")},
		},
	}
	cfg := BuildCFG(p.Body)
	rd := SolveReachingDefs(cfg, entryVarsOf(p))
	var vars []string
	for _, u := range rd.MayUndefined() {
		vars = append(vars, u.Var)
	}
	if len(vars) != 1 || vars[0] != "tmp" {
		t.Errorf("MayUndefined = %v, want exactly [tmp]", vars)
	}
}

func TestMayUndefinedCleanProgram(t *testing.T) {
	p := &taskir.Program{
		Name:    "clean",
		Params:  []string{"n"},
		Globals: map[string]int64{"g": 0},
		Body: []taskir.Stmt{
			&taskir.Assign{Dst: "a", Expr: taskir.Add(taskir.Var("n"), taskir.Var("g"))},
			&taskir.Assign{Dst: "b", Expr: taskir.Mul(taskir.Var("a"), taskir.Const(2))},
		},
	}
	cfg := BuildCFG(p.Body)
	rd := SolveReachingDefs(cfg, entryVarsOf(p))
	if u := rd.MayUndefined(); len(u) != 0 {
		t.Errorf("clean program flagged: %v", u)
	}
	if rd.Iterations <= 0 {
		t.Errorf("Iterations = %d, want > 0", rd.Iterations)
	}
}

func TestUseSitesLinkDefs(t *testing.T) {
	p := &taskir.Program{
		Name: "chain",
		Body: []taskir.Stmt{
			&taskir.Assign{Dst: "a", Expr: taskir.Const(1)},
			&taskir.Assign{Dst: "b", Expr: taskir.Var("a")},
		},
	}
	cfg := BuildCFG(p.Body)
	rd := SolveReachingDefs(cfg, nil)
	found := false
	for _, u := range rd.UseSites() {
		if u.Var != "a" {
			continue
		}
		found = true
		if len(u.Defs) != 1 {
			t.Fatalf("use of a reached by %d defs, want 1", len(u.Defs))
		}
		d := rd.Defs[u.Defs[0]]
		if d.Stmt == nil || d.Stmt.Dst != "a" {
			t.Fatalf("use of a linked to wrong def: %+v", d)
		}
	}
	if !found {
		t.Fatal("no use site recorded for a")
	}
}

// ---- constant propagation ----

func TestConstPropUnreachableBranch(t *testing.T) {
	p := &taskir.Program{
		Name: "deadthen",
		Body: []taskir.Stmt{
			&taskir.Assign{Dst: "k", Expr: taskir.Const(0)},
			&taskir.If{ID: 1, Cond: taskir.Var("k"),
				Then: []taskir.Stmt{&taskir.Assign{Dst: "x", Expr: taskir.Const(1)}},
				Else: []taskir.Stmt{&taskir.Assign{Dst: "x", Expr: taskir.Const(2)}}},
		},
	}
	cfg := BuildCFG(p.Body)
	cp := SolveConstProp(cfg, entryVarsOf(p))
	dead := cp.Unreachable()
	if len(dead) != 1 {
		t.Fatalf("unreachable = %v, want exactly the then-assign", dead)
	}
	if a, ok := dead[0].(*taskir.Assign); !ok || a.Expr != taskir.Const(1) {
		t.Errorf("wrong statement flagged: %q", dead[0])
	}
}

func TestConstPropZeroCountLoopBodyDead(t *testing.T) {
	p := &taskir.Program{
		Name: "deadloop",
		Body: []taskir.Stmt{
			&taskir.Loop{ID: 1, Count: taskir.Const(-3), Body: []taskir.Stmt{
				&taskir.Assign{Dst: "x", Expr: taskir.Const(1)},
			}},
		},
	}
	cfg := BuildCFG(p.Body)
	cp := SolveConstProp(cfg, nil)
	if dead := cp.Unreachable(); len(dead) != 1 {
		t.Errorf("negative-count loop body not flagged: %v", dead)
	}
}

func TestConstFeaturesSkipLiteralsFlagFolded(t *testing.T) {
	p := &taskir.Program{
		Name: "cf",
		Body: []taskir.Stmt{
			// Literal event counter: must NOT be flagged.
			&taskir.FeatAdd{FID: 0, Amount: taskir.Const(1)},
			// Compound amount folding to 5: must be flagged.
			&taskir.FeatAdd{FID: 1, Amount: taskir.Max(taskir.Const(5), taskir.Const(0))},
			// Input-dependent amount: must NOT be flagged.
			&taskir.FeatAdd{FID: 2, Amount: taskir.Add(taskir.Var("n"), taskir.Const(1))},
		},
		Params: []string{"n"},
	}
	cfg := BuildCFG(p.Body)
	cp := SolveConstProp(cfg, entryVarsOf(p))
	cfs := cp.ConstFeatures()
	if len(cfs) != 1 || cfs[0].Stmt.FID != 1 || cfs[0].Value != 5 {
		t.Errorf("ConstFeatures = %+v, want exactly FID 1 = 5", cfs)
	}
}

// ---- intervals ----

// Soundness: for every operator and concrete operand pair, the result
// of the interpreter must lie inside the interval computed from point
// (and widened) operand intervals.
func TestIntervalSoundnessFuzz(t *testing.T) {
	ops := []taskir.Op{
		taskir.OpAdd, taskir.OpSub, taskir.OpMul, taskir.OpDiv, taskir.OpMod,
		taskir.OpMin, taskir.OpMax, taskir.OpLT, taskir.OpLE, taskir.OpGT,
		taskir.OpGE, taskir.OpEQ, taskir.OpNE, taskir.OpAnd, taskir.OpOr,
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5000; trial++ {
		op := ops[rng.Intn(len(ops))]
		a := rng.Int63n(41) - 20
		b := rng.Int63n(41) - 20
		got := op.Apply(a, b)

		// Point intervals must contain the concrete result.
		iv := binInterval(op, Point(a), Point(b))
		if !iv.Contains(got) {
			t.Fatalf("op %v: %d op %d = %d outside point interval %v", op, a, b, got, iv)
		}
		// Widened intervals containing the operands must still contain it.
		wa := Interval{Lo: float64(a) - float64(rng.Intn(5)), Hi: float64(a) + float64(rng.Intn(5))}
		wb := Interval{Lo: float64(b) - float64(rng.Intn(5)), Hi: float64(b) + float64(rng.Intn(5))}
		if iv := binInterval(op, wa, wb); !iv.Contains(got) {
			t.Fatalf("op %v: %d op %d = %d outside widened %v op %v = %v", op, a, b, got, wa, wb, iv)
		}
		// Top operands must never lose the result.
		if iv := binInterval(op, Top(), Top()); !iv.Contains(got) {
			t.Fatalf("op %v: result %d outside Top-derived interval %v", op, got, iv)
		}
	}
}

func TestEvalIntervalMissingVarIsTop(t *testing.T) {
	iv := EvalInterval(taskir.Var("nowhere"), map[string]Interval{})
	if !math.IsInf(iv.Lo, -1) || !math.IsInf(iv.Hi, 1) {
		t.Errorf("missing var interval = %v, want Top", iv)
	}
}

func TestIntervalJoin(t *testing.T) {
	j := Range(1, 3).Join(Range(-2, 2))
	if j.Lo != -2 || j.Hi != 3 {
		t.Errorf("join = %v, want [-2, 3]", j)
	}
}

// ---- cost bounds ----

func TestBoundCostStraightLine(t *testing.T) {
	p := &taskir.Program{
		Name: "straight",
		Body: []taskir.Stmt{
			&taskir.Assign{Dst: "a", Expr: taskir.Const(1)},
			&taskir.Assign{Dst: "b", Expr: taskir.Const(2)},
			&taskir.Assign{Dst: "c", Expr: taskir.Const(3)},
		},
	}
	b := BoundCost(p, nil)
	if !b.Finite() || b.Stmts != 3 || b.Iters != 0 {
		t.Errorf("bound = %+v, want 3 stmts, 0 iters", b)
	}
}

func TestBoundCostConstLoopIsExact(t *testing.T) {
	p := &taskir.Program{
		Name: "constloop",
		Body: []taskir.Stmt{
			&taskir.Loop{ID: 1, Count: taskir.Const(4), Body: []taskir.Stmt{
				&taskir.Assign{Dst: "x", Expr: taskir.Const(1)},
				&taskir.Assign{Dst: "y", Expr: taskir.Const(2)},
			}},
		},
	}
	b := BoundCost(p, nil)
	// The loop statement itself plus 4 iterations of 2 statements.
	if b.Stmts != 1+4*2 || b.Iters != 4 {
		t.Errorf("bound = %+v, want 9 stmts, 4 iters", b)
	}
	// Must match the interpreter exactly for a constant program.
	env := taskir.NewEnv(nil)
	w, err := taskir.Run(p, env, taskir.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.CPUWork(); got != w.CPU {
		t.Errorf("CPUWork = %g, interpreter measured %g", got, w.CPU)
	}
}

func TestBoundCostParamLoopNeedsBounds(t *testing.T) {
	p := &taskir.Program{
		Name:   "paramloop",
		Params: []string{"n"},
		Body: []taskir.Stmt{
			&taskir.Loop{ID: 1, Count: taskir.Var("n"), Body: []taskir.Stmt{
				&taskir.Assign{Dst: "x", Expr: taskir.Const(1)},
			}},
		},
	}
	if b := BoundCost(p, nil); b.Finite() {
		t.Errorf("unbounded param produced finite bound %+v", b)
	}
	b := BoundCost(p, map[string]Interval{"n": Range(0, 10)})
	if !b.Finite() || b.Stmts != 1+10 || b.Iters != 10 {
		t.Errorf("bound = %+v, want 11 stmts, 10 iters", b)
	}
}

// A loop that may run zero times must not let the body's assignments
// shadow the pre-loop state of later trip counts.
func TestBoundCostZeroIterationJoin(t *testing.T) {
	p := &taskir.Program{
		Name:   "zeroiter",
		Params: []string{"n"},
		Body: []taskir.Stmt{
			&taskir.Assign{Dst: "k", Expr: taskir.Const(8)},
			&taskir.Loop{ID: 1, Count: taskir.Var("n"), Body: []taskir.Stmt{
				&taskir.Assign{Dst: "k", Expr: taskir.Const(2)},
			}},
			&taskir.Loop{ID: 2, Count: taskir.Var("k"), Body: []taskir.Stmt{
				&taskir.Assign{Dst: "x", Expr: taskir.Const(1)},
			}},
		},
	}
	b := BoundCost(p, map[string]Interval{"n": Range(0, 3)})
	if !b.Finite() {
		t.Fatal("bound not finite")
	}
	// With n=0 the second loop runs k=8 times; a bound computed only
	// from the post-body state (k=2) would undercount. 2 loop stmts +
	// 1 assign + up to 3 body iterations + up to 8 second-loop bodies.
	if b.Stmts < 3+3+8 {
		t.Errorf("bound %v ignores the zero-iteration path (want >= 14 stmts)", b)
	}
}

func TestBoundCostWhileUsesMaxIter(t *testing.T) {
	p := &taskir.Program{
		Name:   "spin",
		Params: []string{"n"},
		Body: []taskir.Stmt{
			&taskir.While{ID: 1, Cond: taskir.GT(taskir.Var("n"), taskir.Const(0)), MaxIter: 7,
				Body: []taskir.Stmt{
					&taskir.Assign{Dst: "n", Expr: taskir.Sub(taskir.Var("n"), taskir.Const(1))},
				}},
		},
	}
	b := BoundCost(p, nil)
	if !b.Finite() || b.Iters != 7 {
		t.Errorf("bound = %+v, want 7 iterations (MaxIter)", b)
	}
}

// ---- effects ----

func TestProgramEffect(t *testing.T) {
	p := &taskir.Program{
		Name:    "fx",
		Params:  []string{"n"},
		Globals: map[string]int64{"g0": 0, "g1": 0},
		Body: []taskir.Stmt{
			&taskir.Assign{Dst: "g0", Expr: taskir.Add(taskir.Var("g1"), taskir.Var("n"))},
			&taskir.Compute{Work: 10},
			&taskir.FeatAdd{FID: 3, Amount: taskir.Const(1)},
		},
	}
	e := ProgramEffect(p)
	if got := e.WritesSorted(); len(got) != 1 || got[0] != "g0" {
		t.Errorf("writes = %v, want [g0]", got)
	}
	if got := e.ReadsSorted(); len(got) != 1 || got[0] != "g1" {
		t.Errorf("reads = %v, want [g1]", got)
	}
	if e.ComputeStmts != 1 {
		t.Errorf("compute stmts = %d, want 1", e.ComputeStmts)
	}
	if got := e.FIDsSorted(); len(got) != 1 || got[0] != 3 {
		t.Errorf("feature FIDs = %v, want [3]", got)
	}
}

// ---- slice verification ----

// Acceptance requirement: the verifier accepts every slice the slicer
// extracts from the seed benchmark programs.
func TestVerifySliceAcceptsAllSeedWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		ip := instrument.Instrument(w.Prog)
		sl := slicer.Extract(ip, nil)
		rep, err := VerifySlice(ip, sl)
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if len(rep.NeededFIDs) != len(ip.Sites) {
			t.Errorf("%s: report covers %d FIDs, sites have %d", w.Name, len(rep.NeededFIDs), len(ip.Sites))
		}
	}
}

func TestVerifySliceRejectsRetainedCompute(t *testing.T) {
	w := mustWorkload(t, "ldecode")
	ip := instrument.Instrument(w.Prog)
	sl := slicer.Extract(ip, nil)
	// Sabotage: sneak a Compute back into the slice.
	sl.Prog.Body = append(sl.Prog.Body, &taskir.Compute{Work: 1})
	if _, err := VerifySlice(ip, sl); err == nil {
		t.Fatal("slice with retained Compute accepted")
	} else if !strings.Contains(err.Error(), "compute") {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestVerifySliceRejectsMissingFeature(t *testing.T) {
	w := mustWorkload(t, "ldecode")
	ip := instrument.Instrument(w.Prog)
	sl := slicer.Extract(ip, nil)
	// Sabotage: drop every statement; the needed FIDs are then absent.
	sl.Prog.Body = nil
	if _, err := VerifySlice(ip, sl); err == nil {
		t.Fatal("slice missing its features accepted")
	}
}

// ---- lint ----

func TestLintFlagsCraftedProblems(t *testing.T) {
	p := &taskir.Program{
		Name:   "bad",
		Params: []string{"n"},
		Body: []taskir.Stmt{
			// Undefined read: never assigned anywhere.
			&taskir.Assign{Dst: "x", Expr: taskir.Var("ghost")},
			// Uninstrumented loop (coverage check on).
			&taskir.Loop{ID: 1, Count: taskir.Var("n"), Body: []taskir.Stmt{
				&taskir.Assign{Dst: "y", Expr: taskir.Const(1)},
			}},
			// A counter elsewhere so the program is plausibly instrumented.
			&taskir.FeatAdd{FID: 0, Amount: taskir.Max(taskir.Var("n"), taskir.Const(0))},
		},
	}
	findings := Lint(p, LintOptions{CheckCoverage: true})
	codes := map[string]int{}
	for _, f := range findings {
		codes[f.Code]++
	}
	if codes[CodeUndefinedRead] == 0 {
		t.Errorf("undefined read not flagged: %v", findings)
	}
	if codes[CodeUninstrumented] == 0 {
		t.Errorf("uninstrumented loop not flagged: %v", findings)
	}
	if ErrorCount(findings) < 2 {
		t.Errorf("ErrorCount = %d, want >= 2", ErrorCount(findings))
	}
}

func TestLintCleanOnInstrumentedWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		ip := instrument.Instrument(w.Prog)
		findings := Lint(ip.Prog, LintOptions{CheckCoverage: true})
		if n := ErrorCount(findings); n != 0 {
			t.Errorf("%s: %d lint errors on instrumented seed program: %v", w.Name, n, findings)
		}
	}
}

func mustWorkload(t *testing.T, name string) *workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
