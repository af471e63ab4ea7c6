package taskir

import (
	"math"
	"testing"
)

// edgeValues are the operands every fused closure is checked on: zero
// divisors, the MinInt64 / -1 and MinInt64 % -1 pairs, and values whose
// sums and products wrap.
var edgeValues = []int64{
	0, 1, -1, 2, -2, 7, -7, 97, -97, 1 << 32,
	math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
}

// allOps lists every operator. The compiler hands the fused
// constructors valid operators only.
var allOps = func() []Op {
	ops := make([]Op, 0, len(opFuncs))
	for op := range opFuncs {
		ops = append(ops, Op(op))
	}
	return ops
}()

func testFrame(vals ...int64) *frame {
	return &frame{
		vals:     append([]int64(nil), vals...),
		slots:    make([]slot, len(vals)),
		maxSteps: defaultMaxSteps,
	}
}

func checkSame(t *testing.T, shape string, args []any, got, want int64) {
	t.Helper()
	if got != want {
		t.Fatalf("%s %v = %d, Op.Apply gives %d", shape, args, got, want)
	}
}

// TestApplyEdgeSemantics pins the arithmetic the fused closures are
// checked against: division and modulo by zero yield 0, and the cases
// Go defines by wrapping (MinInt64 / -1, overflowing sums and
// products) wrap.
func TestApplyEdgeSemantics(t *testing.T) {
	for _, c := range []struct {
		op      Op
		l, r, v int64
	}{
		{OpDiv, 5, 0, 0},
		{OpMod, 5, 0, 0},
		{OpDiv, math.MinInt64, -1, math.MinInt64},
		{OpMod, math.MinInt64, -1, 0},
		{OpMod, -7, 2, -1},
		{OpAdd, math.MaxInt64, 1, math.MinInt64},
		{OpSub, math.MinInt64, 1, math.MaxInt64},
		{OpMul, math.MaxInt64, 2, -2},
		{OpAnd, 2, -3, 1},
		{OpOr, 0, 0, 0},
	} {
		if got := c.op.Apply(c.l, c.r); got != c.v {
			t.Errorf("%d %s %d = %d, want %d", c.l, opNames[c.op], c.r, got, c.v)
		}
	}
}

// TestFusedClosuresMatchApply checks every shape-fused closure against
// Op.Apply for every operator on every pair of edge values.
// RandomProgram's differential runs do not reach every (operator,
// shape) pairing, so each constructor is driven directly.
func TestFusedClosuresMatchApply(t *testing.T) {
	leaf0 := func(fr *frame) int64 { return fr.vals[0] }
	checkIfCmp(t, Op(len(opFuncs)), 0, 0)
	for _, op := range allOps {
		for _, a := range edgeValues {
			for _, b := range edgeValues {
				what := []any{a, op, b}
				want := op.Apply(a, b)
				checkSame(t, "binLL", what, binLL(op, 0, 1)(testFrame(a, b, 0)), want)
				for name, stmt := range map[string]stmtFn{
					"assignLL": assignLL(op, 2, 0, 1),
					"assignEL": assignEL(op, 2, leaf0, 1),
				} {
					fr := testFrame(a, b, 0)
					if err := stmt(fr); err != nil {
						t.Fatal(err)
					}
					checkSame(t, name, what, fr.vals[2], want)
					if fr.work.Stmts != 1 || fr.work.CPU != StmtCostCPU {
						t.Fatalf("%s %v charged %+v, want one statement", name, what, fr.work)
					}
				}
				checkIfCmp(t, op, a, b)
				for _, in := range allOps {
					for _, c := range []int64{0, -1, math.MinInt64} {
						what := []any{a, in, b, op, c}
						want := op.Apply(in.Apply(a, b), c)
						fr := testFrame(a, b, c, 0)
						checkSame(t, "binLLL", what, binLLL(op, opFuncs[in], 0, 1, 2)(fr), want)
						checkSame(t, "binLLLL", what, binLLLL(op, opFuncs[in], opFuncs[in], 0, 1, 2, 0)(fr),
							op.Apply(in.Apply(a, b), in.Apply(c, a)))
						if err := assignLLL(op, opFuncs[in], 3, 0, 1, 2)(fr); err != nil {
							t.Fatal(err)
						}
						checkSame(t, "assignLLL", what, fr.vals[3], want)
					}
				}
			}
		}
	}
}

// checkIfCmp holds ifCmp to the comparisons: for those it runs Then
// exactly when Apply is non-zero and Else otherwise; for every other
// operator it declines, and the generic If compiles instead.
func checkIfCmp(t *testing.T, op Op, a, b int64) {
	t.Helper()
	mark := func(v int64) []stmtFn {
		return []stmtFn{func(fr *frame) error { return fr.assign(2, v) }}
	}
	f := ifCmp(op, 0, 1, mark(1), mark(2))
	isCmp := op >= OpLT && op <= OpNE
	if (f != nil) != isCmp {
		t.Fatalf("ifCmp(op%d) = %v, want a closure only for comparisons", op, f != nil)
	}
	if f == nil {
		return
	}
	fr := testFrame(a, b, 0)
	if err := f(fr); err != nil {
		t.Fatal(err)
	}
	want := int64(2)
	if op.Apply(a, b) != 0 {
		want = 1
	}
	if fr.vals[2] != want || fr.work.Stmts != 2 {
		t.Fatalf("if %d op%d %d ran arm %d with %d statements, want arm %d with 2", a, op, b, fr.vals[2], fr.work.Stmts, want)
	}
	// An empty arm costs the If's own step and nothing else.
	fr = testFrame(a, b, 0)
	if err := ifCmp(op, 0, 1, nil, nil)(fr); err != nil || fr.work.Stmts != 1 {
		t.Fatalf("if with empty arms: err %v, %d statements, want 1", err, fr.work.Stmts)
	}
}

// TestFusedCompileMatchesUnfused runs a program made of every fused
// shape, for every operator and on edge values, through the default
// compile and through the tracking compile, which fuses no variable
// reads, and requires the same work and variables.
func TestFusedCompileMatchesUnfused(t *testing.T) {
	v := func(n string) Expr { return Var(n) }
	for op := Op(0); op.valid(); op++ {
		p := &Program{
			Params: []string{"a", "b", "c"},
			Body: []Stmt{
				&Assign{Dst: "ll", Expr: &Bin{op, v("a"), v("b")}},
				&Assign{Dst: "lc", Expr: &Bin{op, v("a"), Const(-1)}},
				&Assign{Dst: "lll", Expr: &Bin{op, &Bin{OpMul, v("a"), v("b")}, v("c")}},
				&Assign{Dst: "el", Expr: &Bin{op, &Bin{OpAdd, &Bin{OpMul, v("a"), Const(3)}, v("b")}, v("c")}},
				&Assign{Dst: "llll", Expr: &Bin{op, &Bin{OpMul, v("a"), v("b")}, &Bin{OpSub, v("c"), Const(5)}}},
				&Assign{Dst: "ee", Expr: &Bin{op, &Not{v("a")}, &Bin{OpSub, v("b"), v("c")}}},
				&Assign{Dst: "cc", Expr: &Bin{op, Const(7), Const(-2)}},
				&If{ID: 1, Cond: &Bin{op, v("a"), v("b")}, Then: []Stmt{&Assign{Dst: "t", Expr: Const(1)}}},
			},
		}
		for _, a := range edgeValues {
			for _, b := range edgeValues[:6] {
				params := map[string]int64{"a": a, "b": b, "c": -b}
				fast, slow := NewEnv(map[string]int64{}), NewEnv(map[string]int64{})
				fast.SetParams(params)
				slow.SetParams(params)
				slow.TrackReads()
				wf, errF := Run(p, fast, RunOptions{})
				ws, errS := Run(p, slow, RunOptions{})
				if errF != nil || errS != nil || wf != ws || fast.String() != slow.String() {
					t.Fatalf("op%d a=%d b=%d: fused %s %+v %v, unfused %s %+v %v",
						op, a, b, fast, wf, errF, slow, ws, errS)
				}
			}
		}
	}
}
