package taskir

import "fmt"

// Shape-fused closures. The compiler picks one of these by the shape
// of an expression's operands, so the closure reads its leaf operands
// straight from the frame's value array: no closure call per leaf.
// Most shapes apply their operator through its function in opFuncs.
// Three are also written out per operator, because a closure only
// inlines a function it calls by name: e op leaf assigned, (leaf op
// leaf) op (leaf op leaf), and If on a comparison of two leaves. Those
// carry a loop-heavy slice's inner statements (pocketsphinx's
// score = ((b*89)+(f*31))%97, then if score < beam). Writing the other
// shapes out per operator as well measured no faster; writing out none
// of them cost a fifth of sim_predict's throughput. The compiler
// passes valid operators only.

// binLL compiles vals[i] op vals[j].
func binLL(op Op, i, j int) exprFn {
	f := opFuncs[op]
	return func(fr *frame) int64 { return f(fr.vals[i], fr.vals[j]) }
}

// binLLL compiles (vals[i] in vals[j]) op vals[k].
func binLLL(op Op, in func(l, r int64) int64, i, j, k int) exprFn {
	f := opFuncs[op]
	return func(fr *frame) int64 { v := fr.vals; return f(in(v[i], v[j]), v[k]) }
}

// binLLLL compiles (vals[i] f vals[j]) op (vals[k] g vals[l]).
func binLLLL(op Op, f, g func(l, r int64) int64, i, j, k, l int) exprFn {
	switch op {
	case OpAdd:
		return func(fr *frame) int64 { v := fr.vals; return add(f(v[i], v[j]), g(v[k], v[l])) }
	case OpSub:
		return func(fr *frame) int64 { v := fr.vals; return sub(f(v[i], v[j]), g(v[k], v[l])) }
	case OpMul:
		return func(fr *frame) int64 { v := fr.vals; return mul(f(v[i], v[j]), g(v[k], v[l])) }
	case OpDiv:
		return func(fr *frame) int64 { v := fr.vals; return div(f(v[i], v[j]), g(v[k], v[l])) }
	case OpMod:
		return func(fr *frame) int64 { v := fr.vals; return mod(f(v[i], v[j]), g(v[k], v[l])) }
	case OpMin:
		return func(fr *frame) int64 { v := fr.vals; return minOp(f(v[i], v[j]), g(v[k], v[l])) }
	case OpMax:
		return func(fr *frame) int64 { v := fr.vals; return maxOp(f(v[i], v[j]), g(v[k], v[l])) }
	case OpLT:
		return func(fr *frame) int64 { v := fr.vals; return lt(f(v[i], v[j]), g(v[k], v[l])) }
	case OpLE:
		return func(fr *frame) int64 { v := fr.vals; return le(f(v[i], v[j]), g(v[k], v[l])) }
	case OpGT:
		return func(fr *frame) int64 { v := fr.vals; return gt(f(v[i], v[j]), g(v[k], v[l])) }
	case OpGE:
		return func(fr *frame) int64 { v := fr.vals; return ge(f(v[i], v[j]), g(v[k], v[l])) }
	case OpEQ:
		return func(fr *frame) int64 { v := fr.vals; return eq(f(v[i], v[j]), g(v[k], v[l])) }
	case OpNE:
		return func(fr *frame) int64 { v := fr.vals; return ne(f(v[i], v[j]), g(v[k], v[l])) }
	case OpAnd:
		return func(fr *frame) int64 { v := fr.vals; return and(f(v[i], v[j]), g(v[k], v[l])) }
	case OpOr:
		return func(fr *frame) int64 { v := fr.vals; return or(f(v[i], v[j]), g(v[k], v[l])) }
	}
	panic(fmt.Sprintf("taskir: unknown op %d", op))
}

// assignEL compiles dst = e op vals[j], e any expression.
func assignEL(op Op, dst int, e exprFn, j int) stmtFn {
	switch op {
	case OpAdd:
		return func(fr *frame) error { return fr.assign(dst, add(e(fr), fr.vals[j])) }
	case OpSub:
		return func(fr *frame) error { return fr.assign(dst, sub(e(fr), fr.vals[j])) }
	case OpMul:
		return func(fr *frame) error { return fr.assign(dst, mul(e(fr), fr.vals[j])) }
	case OpDiv:
		return func(fr *frame) error { return fr.assign(dst, div(e(fr), fr.vals[j])) }
	case OpMod:
		return func(fr *frame) error { return fr.assign(dst, mod(e(fr), fr.vals[j])) }
	case OpMin:
		return func(fr *frame) error { return fr.assign(dst, minOp(e(fr), fr.vals[j])) }
	case OpMax:
		return func(fr *frame) error { return fr.assign(dst, maxOp(e(fr), fr.vals[j])) }
	case OpLT:
		return func(fr *frame) error { return fr.assign(dst, lt(e(fr), fr.vals[j])) }
	case OpLE:
		return func(fr *frame) error { return fr.assign(dst, le(e(fr), fr.vals[j])) }
	case OpGT:
		return func(fr *frame) error { return fr.assign(dst, gt(e(fr), fr.vals[j])) }
	case OpGE:
		return func(fr *frame) error { return fr.assign(dst, ge(e(fr), fr.vals[j])) }
	case OpEQ:
		return func(fr *frame) error { return fr.assign(dst, eq(e(fr), fr.vals[j])) }
	case OpNE:
		return func(fr *frame) error { return fr.assign(dst, ne(e(fr), fr.vals[j])) }
	case OpAnd:
		return func(fr *frame) error { return fr.assign(dst, and(e(fr), fr.vals[j])) }
	case OpOr:
		return func(fr *frame) error { return fr.assign(dst, or(e(fr), fr.vals[j])) }
	}
	panic(fmt.Sprintf("taskir: unknown op %d", op))
}

// assignLL compiles dst = vals[i] op vals[j].
func assignLL(op Op, dst, i, j int) stmtFn {
	f := opFuncs[op]
	return func(fr *frame) error { return fr.assign(dst, f(fr.vals[i], fr.vals[j])) }
}

// assignLLL compiles dst = (vals[i] in vals[j]) op vals[k].
func assignLLL(op Op, in func(l, r int64) int64, dst, i, j, k int) stmtFn {
	f := opFuncs[op]
	return func(fr *frame) error { v := fr.vals; return fr.assign(dst, f(in(v[i], v[j]), v[k])) }
}

// ifCmp compiles if vals[i] op vals[j] for a comparison op, or returns
// nil for any other op.
func ifCmp(op Op, i, j int, then, els []stmtFn) stmtFn {
	switch op {
	case OpLT:
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			if lt(fr.vals[i], fr.vals[j]) != 0 {
				return fr.block(then)
			}
			return fr.block(els)
		}
	case OpLE:
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			if le(fr.vals[i], fr.vals[j]) != 0 {
				return fr.block(then)
			}
			return fr.block(els)
		}
	case OpGT:
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			if gt(fr.vals[i], fr.vals[j]) != 0 {
				return fr.block(then)
			}
			return fr.block(els)
		}
	case OpGE:
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			if ge(fr.vals[i], fr.vals[j]) != 0 {
				return fr.block(then)
			}
			return fr.block(els)
		}
	case OpEQ:
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			if eq(fr.vals[i], fr.vals[j]) != 0 {
				return fr.block(then)
			}
			return fr.block(els)
		}
	case OpNE:
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			if ne(fr.vals[i], fr.vals[j]) != 0 {
				return fr.block(then)
			}
			return fr.block(els)
		}
	}
	return nil
}
