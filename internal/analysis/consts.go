package analysis

import (
	"repro/internal/taskir"
)

// Conditional constant propagation over the CFG: propagates per-
// variable constants through assignments, follows only feasible branch
// edges when a condition folds to a constant, and marks the blocks
// never reached. Lint uses it for unreachable-code and constant-
// feature findings; the folder is also how a FeatAdd amount is shown
// to carry no per-job information.
//
// Lattice per variable: constant c, or top ("varies"). A variable
// missing from a state is a constant 0 — that is exactly the
// interpreter's semantics for never-assigned names (Env.Get yields 0),
// and the separate reaching-defs pass flags such reads.

type cpKind uint8

const (
	cpConst cpKind = iota
	cpTop
)

type cpVal struct {
	kind cpKind
	v    int64
}

type cpState map[string]cpVal

// ConstProp holds the solved conditional-constant-propagation facts.
type ConstProp struct {
	CFG *CFG
	// Reachable marks blocks reached along feasible edges only.
	Reachable []bool

	in []cpState
}

// ConstFeature is a FeatAdd whose amount is the same constant on every
// feasible path — the feature can never distinguish jobs.
type ConstFeature struct {
	Stmt  *taskir.FeatAdd
	Value int64
}

// SolveConstProp runs conditional constant propagation. topVars lists
// variables with unknown values at entry (params and globals); every
// other variable starts as the constant 0, matching Env.Get.
func SolveConstProp(cfg *CFG, topVars []string) *ConstProp {
	cp := &ConstProp{
		CFG:       cfg,
		Reachable: make([]bool, len(cfg.Blocks)),
		in:        make([]cpState, len(cfg.Blocks)),
	}
	entryState := cpState{}
	for _, v := range topVars {
		entryState[v] = cpVal{kind: cpTop}
	}
	cp.in[cfg.Entry] = entryState
	cp.Reachable[cfg.Entry] = true

	// out-states per block and edge feasibility, recomputed until the
	// fixpoint. Feasibility only ever turns edges on, and lattice
	// values only rise (const → top), so iteration terminates.
	out := make([]cpState, len(cfg.Blocks))
	feasible := map[[2]int]bool{}
	work := []int{cfg.Entry}
	inWork := make([]bool, len(cfg.Blocks))
	inWork[cfg.Entry] = true
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		inWork[id] = false
		blk := cfg.Blocks[id]

		// Meet over feasible predecessor out-states (entry keeps its
		// initial state).
		if id != cfg.Entry {
			var st cpState
			for _, p := range blk.Preds {
				if !feasible[[2]int{p, id}] {
					continue
				}
				if st == nil {
					st = cloneState(out[p])
				} else {
					st = meetStates(st, out[p])
				}
			}
			if st == nil {
				continue // not yet reachable
			}
			cp.in[id] = st
			cp.Reachable[id] = true
		}

		// Transfer through the block.
		st := cloneState(cp.in[id])
		for _, v := range blk.IndexDefs {
			st[v] = cpVal{kind: cpTop}
		}
		for _, s := range blk.Stmts {
			if as, ok := s.(*taskir.Assign); ok {
				st[as.Dst] = foldVal(as.Expr, st)
			}
		}
		changedOut := !sameState(out[id], st)
		out[id] = st

		// Decide feasible successor edges from the terminator.
		newFeasible := cp.feasibleSuccs(blk, st)
		edgeChanged := false
		for _, succ := range newFeasible {
			e := [2]int{id, succ}
			if !feasible[e] {
				feasible[e] = true
				edgeChanged = true
			}
		}
		if changedOut || edgeChanged {
			for _, succ := range blk.Succs {
				if feasible[[2]int{id, succ}] && !inWork[succ] {
					work = append(work, succ)
					inWork[succ] = true
				}
			}
		}
	}
	return cp
}

// feasibleSuccs returns the successors control can actually reach
// given the out-state st. Successor order mirrors construction order
// in BuildCFG (see the lowering shapes in its doc comment).
func (cp *ConstProp) feasibleSuccs(blk *Block, st cpState) []int {
	switch term := blk.Term.(type) {
	case *taskir.If:
		// Succs: [then-entry, else-entry-or-join] (join directly when
		// Else is empty).
		if c, ok := constOf(foldVal(term.Cond, st)); ok {
			if c != 0 {
				return blk.Succs[:1]
			}
			return blk.Succs[1:2]
		}
	case *taskir.While:
		// Succs: [body-entry, after].
		if c, ok := constOf(foldVal(term.Cond, st)); ok && c == 0 {
			return blk.Succs[1:2]
		}
	case *taskir.Loop:
		// Succs: [body-entry, after].
		if c, ok := constOf(foldVal(term.Count, st)); ok && c <= 0 {
			return blk.Succs[1:2]
		}
	case *taskir.Call:
		// Succs: [join, func-entry per address in sorted order].
		if c, ok := constOf(foldVal(term.Target, st)); ok {
			for i, addr := range sortedAddrs(term.Funcs) {
				if addr == c {
					return blk.Succs[i+1 : i+2]
				}
			}
			return blk.Succs[:1] // unknown address: straight to join
		}
	}
	return blk.Succs
}

// Unreachable returns one representative statement for each region
// never reached along feasible edges: the first statement (or control
// statement) of every unreachable block whose predecessor is
// reachable. Deeper blocks of the same dead region are suppressed.
func (cp *ConstProp) Unreachable() []taskir.Stmt {
	var out []taskir.Stmt
	for _, blk := range cp.CFG.Blocks {
		if cp.Reachable[blk.ID] {
			continue
		}
		entered := false
		for _, p := range blk.Preds {
			if cp.Reachable[p] {
				entered = true
				break
			}
		}
		if !entered {
			continue
		}
		if len(blk.Stmts) > 0 {
			out = append(out, blk.Stmts[0])
		} else if blk.Term != nil {
			out = append(out, blk.Term)
		}
	}
	return out
}

// ConstFeatures returns the FeatAdd statements in reachable blocks
// whose amount is a non-literal expression that still folds to a
// constant. Literal amounts are skipped: event counters like the
// `feature[k] += 1` that instrumentation places in a then-block are
// constant per increment by construction, and their totals vary with
// how often the block runs. A folded compound amount, by contrast,
// means a trip-count expression that cannot depend on the input.
func (cp *ConstProp) ConstFeatures() []ConstFeature {
	var out []ConstFeature
	for _, blk := range cp.CFG.Blocks {
		if !cp.Reachable[blk.ID] {
			continue
		}
		st := cloneState(cp.in[blk.ID])
		for _, v := range blk.IndexDefs {
			st[v] = cpVal{kind: cpTop}
		}
		for _, s := range blk.Stmts {
			switch x := s.(type) {
			case *taskir.Assign:
				st[x.Dst] = foldVal(x.Expr, st)
			case *taskir.FeatAdd:
				if _, lit := x.Amount.(taskir.Const); lit {
					continue
				}
				if c, ok := constOf(foldVal(x.Amount, st)); ok {
					out = append(out, ConstFeature{Stmt: x, Value: c})
				}
			}
		}
	}
	return out
}

func constOf(v cpVal) (int64, bool) {
	if v.kind == cpConst {
		return v.v, true
	}
	return 0, false
}

// foldVal evaluates e over the abstract state. Unmapped variables are
// the constant 0 (interpreter semantics for never-assigned names).
func foldVal(e taskir.Expr, st cpState) cpVal {
	switch x := e.(type) {
	case taskir.Const:
		return cpVal{v: int64(x)}
	case taskir.Var:
		if v, ok := st[string(x)]; ok {
			return v
		}
		return cpVal{v: 0}
	case *taskir.Not:
		inner := foldVal(x.X, st)
		if c, ok := constOf(inner); ok {
			if c == 0 {
				return cpVal{v: 1}
			}
			return cpVal{v: 0}
		}
		return cpVal{kind: cpTop}
	case *taskir.Bin:
		l := foldVal(x.L, st)
		r := foldVal(x.R, st)
		lc, lok := constOf(l)
		rc, rok := constOf(r)
		if lok && rok {
			// Delegate to the engine's own operator semantics: Op.Apply
			// is the function the compiled program evaluates with.
			return cpVal{v: x.Op.Apply(lc, rc)}
		}
		// Absorbing elements fold even with one unknown side (Apply has
		// no short-circuit or side effects, so this is sound).
		switch x.Op {
		case taskir.OpMul:
			if (lok && lc == 0) || (rok && rc == 0) {
				return cpVal{v: 0}
			}
		case taskir.OpAnd:
			if (lok && lc == 0) || (rok && rc == 0) {
				return cpVal{v: 0}
			}
		case taskir.OpOr:
			if (lok && lc != 0) || (rok && rc != 0) {
				return cpVal{v: 1}
			}
		}
		return cpVal{kind: cpTop}
	default:
		return cpVal{kind: cpTop}
	}
}

func cloneState(st cpState) cpState {
	c := make(cpState, len(st))
	for k, v := range st {
		c[k] = v
	}
	return c
}

// meetStates joins two states variable-wise: equal constants stay,
// differing values rise to top; a variable missing on one side is the
// constant 0 there.
func meetStates(a, b cpState) cpState {
	m := make(cpState, len(a))
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			bv = cpVal{v: 0}
		}
		m[k] = meetVal(av, bv)
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			m[k] = meetVal(cpVal{v: 0}, bv)
		}
	}
	return m
}

func meetVal(a, b cpVal) cpVal {
	if a.kind == cpTop || b.kind == cpTop {
		return cpVal{kind: cpTop}
	}
	if a.v != b.v {
		return cpVal{kind: cpTop}
	}
	return a
}

func sameState(a, b cpState) bool {
	if a == nil {
		return false
	}
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		if bv, ok := b[k]; !ok || av != bv {
			return false
		}
	}
	return true
}
