package analysis

import (
	"fmt"
	"math"

	"repro/internal/taskir"
)

// Interval is a conservative range of an integer expression's value.
// Endpoints are float64 so ±Inf expresses "unbounded"; int64 values up
// to 2^53 are represented exactly, far beyond any sane loop bound.
type Interval struct {
	Lo, Hi float64
}

// Top is the unbounded interval.
func Top() Interval { return Interval{math.Inf(-1), math.Inf(1)} }

// Point is the singleton interval [v, v].
func Point(v int64) Interval { f := float64(v); return Interval{f, f} }

// Range is the interval [lo, hi].
func Range(lo, hi int64) Interval { return Interval{float64(lo), float64(hi)} }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v int64) bool { return iv.Lo <= float64(v) && float64(v) <= iv.Hi }

// Join returns the smallest interval covering both operands.
func (iv Interval) Join(o Interval) Interval {
	return Interval{math.Min(iv.Lo, o.Lo), math.Max(iv.Hi, o.Hi)}
}

func (iv Interval) String() string { return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi) }

// bool01 is the interval of any comparison or logical result.
func bool01() Interval { return Interval{0, 1} }

// EvalInterval bounds e given variable ranges. Missing variables are
// unbounded — callers that know better (e.g. observed param ranges)
// supply env entries. The arithmetic mirrors Op.Apply's guarded
// semantics (division and modulo by zero yield 0).
func EvalInterval(e taskir.Expr, env map[string]Interval) Interval {
	switch x := e.(type) {
	case taskir.Const:
		return Point(int64(x))
	case taskir.Var:
		if iv, ok := env[string(x)]; ok {
			return iv
		}
		return Top()
	case *taskir.Not:
		iv := EvalInterval(x.X, env)
		if iv.Lo > 0 || iv.Hi < 0 {
			return Point(0) // operand can never be zero
		}
		if iv.Lo == 0 && iv.Hi == 0 {
			return Point(1)
		}
		return bool01()
	case *taskir.Bin:
		l := EvalInterval(x.L, env)
		r := EvalInterval(x.R, env)
		return binInterval(x.Op, l, r)
	default:
		return Top()
	}
}

func binInterval(op taskir.Op, l, r Interval) Interval {
	switch op {
	case taskir.OpAdd:
		return Interval{l.Lo + r.Lo, l.Hi + r.Hi}
	case taskir.OpSub:
		return Interval{l.Lo - r.Hi, l.Hi - r.Lo}
	case taskir.OpMul:
		return Interval{
			min4(mulEnd(l.Lo, r.Lo), mulEnd(l.Lo, r.Hi), mulEnd(l.Hi, r.Lo), mulEnd(l.Hi, r.Hi)),
			max4(mulEnd(l.Lo, r.Lo), mulEnd(l.Lo, r.Hi), mulEnd(l.Hi, r.Lo), mulEnd(l.Hi, r.Hi)),
		}
	case taskir.OpDiv:
		// Truncated division keeps the quotient between 0 and the real
		// quotient; with |r| ≥ 1 its magnitude never exceeds |l|, and a
		// zero divisor yields 0. The hull over both sign cases is sound
		// for any divisor range.
		return hull(0, l.Lo, l.Hi, -l.Lo, -l.Hi)
	case taskir.OpMod:
		// Go's % follows the dividend's sign, |l%r| < |r|, and the
		// guarded semantics give 0 for r == 0.
		rAbs := math.Max(math.Abs(r.Lo), math.Abs(r.Hi))
		lo := math.Max(-(rAbs - 1), math.Min(0, l.Lo))
		hi := math.Min(rAbs-1, math.Max(0, l.Hi))
		if rAbs == 0 {
			return Point(0)
		}
		return Interval{math.Min(lo, 0), math.Max(hi, 0)}
	case taskir.OpMin:
		return Interval{math.Min(l.Lo, r.Lo), math.Min(l.Hi, r.Hi)}
	case taskir.OpMax:
		return Interval{math.Max(l.Lo, r.Lo), math.Max(l.Hi, r.Hi)}
	case taskir.OpLT:
		return cmpInterval(l.Hi < r.Lo, l.Lo >= r.Hi)
	case taskir.OpLE:
		return cmpInterval(l.Hi <= r.Lo, l.Lo > r.Hi)
	case taskir.OpGT:
		return cmpInterval(l.Lo > r.Hi, l.Hi <= r.Lo)
	case taskir.OpGE:
		return cmpInterval(l.Lo >= r.Hi, l.Hi < r.Lo)
	case taskir.OpEQ:
		if l.Lo == l.Hi && r.Lo == r.Hi && l.Lo == r.Lo {
			return Point(1)
		}
		return cmpInterval(false, l.Hi < r.Lo || l.Lo > r.Hi)
	case taskir.OpNE:
		if l.Hi < r.Lo || l.Lo > r.Hi {
			return Point(1)
		}
		if l.Lo == l.Hi && r.Lo == r.Hi && l.Lo == r.Lo {
			return Point(0)
		}
		return bool01()
	case taskir.OpAnd:
		if zeroOnly(l) || zeroOnly(r) {
			return Point(0)
		}
		if nonZeroOnly(l) && nonZeroOnly(r) {
			return Point(1)
		}
		return bool01()
	case taskir.OpOr:
		if nonZeroOnly(l) || nonZeroOnly(r) {
			return Point(1)
		}
		if zeroOnly(l) && zeroOnly(r) {
			return Point(0)
		}
		return bool01()
	}
	return Top()
}

// cmpInterval maps "always true" / "always false" evidence to the
// comparison result interval.
func cmpInterval(alwaysTrue, alwaysFalse bool) Interval {
	switch {
	case alwaysTrue:
		return Point(1)
	case alwaysFalse:
		return Point(0)
	default:
		return bool01()
	}
}

func zeroOnly(iv Interval) bool    { return iv.Lo == 0 && iv.Hi == 0 }
func nonZeroOnly(iv Interval) bool { return iv.Lo > 0 || iv.Hi < 0 }

// mulEnd multiplies interval endpoints with 0·±Inf defined as 0: a
// zero endpoint means the factor can be exactly 0, making the product
// 0 regardless of the other factor's range.
func mulEnd(a, b float64) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a * b
}

func min4(a, b, c, d float64) float64 { return math.Min(math.Min(a, b), math.Min(c, d)) }
func max4(a, b, c, d float64) float64 { return math.Max(math.Max(a, b), math.Max(c, d)) }

func hull(vals ...float64) Interval {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return Interval{lo, hi}
}
