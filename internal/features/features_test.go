package features

import (
	"testing"

	"repro/internal/instrument"
	"repro/internal/taskir"
)

func prog() *instrument.Program {
	p := &taskir.Program{
		Name:    "sched",
		Params:  []string{"n", "ev"},
		Globals: map[string]int64{},
		Body: []taskir.Stmt{
			&taskir.If{ID: 1, Cond: taskir.GT(taskir.Var("n"), taskir.Const(0)), Then: []taskir.Stmt{
				&taskir.Compute{Work: 10},
			}},
			&taskir.Loop{ID: 2, Count: taskir.Var("n"), Body: []taskir.Stmt{
				&taskir.Compute{Work: 5},
			}},
			&taskir.Call{ID: 3, Target: taskir.Var("ev"), Funcs: map[int64][]taskir.Stmt{
				10: {&taskir.Compute{Work: 1}},
				20: {&taskir.Compute{Work: 2}},
				30: {&taskir.Compute{Work: 3}},
			}},
		},
	}
	return instrument.Instrument(p)
}

func traceOf(t *testing.T, ip *instrument.Program, n, ev int64) *Trace {
	t.Helper()
	env := taskir.NewEnv(map[string]int64{})
	env.SetParams(map[string]int64{"n": n, "ev": ev})
	tr := NewTrace()
	if _, err := taskir.Run(ip.Prog, env, taskir.RunOptions{Recorder: tr}); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildSchemaColumns(t *testing.T) {
	ip := prog()
	traces := []*Trace{traceOf(t, ip, 3, 10), traceOf(t, ip, 0, 30)}
	s := BuildSchema(ip, traces)
	// branch, loop, and two observed call addresses (10 and 30).
	if s.Dim() != 4 {
		t.Fatalf("Dim = %d, want 4; columns=%v", s.Dim(), s.Columns)
	}
	names := []string{"branch#1", "loop#2", "call#3@addr10", "call#3@addr30"}
	for i, want := range names {
		if s.Columns[i].Name != want {
			t.Errorf("column %d = %q, want %q", i, s.Columns[i].Name, want)
		}
	}
}

func TestVectorize(t *testing.T) {
	ip := prog()
	traces := []*Trace{traceOf(t, ip, 3, 10), traceOf(t, ip, 0, 30)}
	s := BuildSchema(ip, traces)

	x := s.Vectorize(traceOf(t, ip, 5, 30))
	want := []float64{1, 5, 0, 1}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}

	// Address never seen in profiling (20) contributes nothing.
	x = s.Vectorize(traceOf(t, ip, 2, 20))
	want = []float64{1, 2, 0, 0}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("unseen addr: x = %v, want %v", x, want)
		}
	}
}

func TestTraceReset(t *testing.T) {
	tr := NewTrace()
	tr.AddFeature(0, 5)
	tr.RecordCall(1, 99)
	tr.Reset()
	if len(tr.Counts()) != 0 || len(tr.CallAddrs()) != 0 {
		t.Fatalf("Reset left data: %v %v", tr.Counts(), tr.CallAddrs())
	}
}

func TestNeededFIDs(t *testing.T) {
	ip := prog()
	traces := []*Trace{traceOf(t, ip, 3, 10), traceOf(t, ip, 0, 30)}
	s := BuildSchema(ip, traces)
	// Columns: 0=branch(fid0), 1=loop(fid1), 2=call@10(fid2), 3=call@30(fid2)
	need := s.NeededFIDs([]int{1, 3})
	if len(need) != 2 || !need[1] || !need[2] {
		t.Fatalf("NeededFIDs = %v, want {1,2}", need)
	}
	// Out-of-range column indices are ignored.
	need = s.NeededFIDs([]int{-1, 99})
	if len(need) != 0 {
		t.Fatalf("NeededFIDs out-of-range = %v, want empty", need)
	}
}

func TestSchemaDeterministic(t *testing.T) {
	ip := prog()
	traces := []*Trace{traceOf(t, ip, 1, 30), traceOf(t, ip, 2, 10), traceOf(t, ip, 3, 20)}
	a := BuildSchema(ip, traces)
	b := BuildSchema(ip, traces)
	if a.Dim() != b.Dim() {
		t.Fatalf("dims differ: %d vs %d", a.Dim(), b.Dim())
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			t.Fatalf("column %d differs: %v vs %v", i, a.Columns[i], b.Columns[i])
		}
	}
}
