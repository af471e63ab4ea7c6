package taskir

import "fmt"

// Expr is an integer expression over the job environment. Programs
// are executed by compiling them (see Compile); expressions themselves
// only describe the computation.
type Expr interface {
	// String renders the expression for debugging.
	String() string
	expr()
}

// Const is an integer literal.
type Const int64

// Var reads a variable from the environment.
type Var string

// Op enumerates binary operators.
type Op int

// Binary operators. Comparison operators yield 0 or 1.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv // division by zero yields 0, like a guarded C helper
	OpMod // modulo by zero yields 0
	OpMin
	OpMax
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
	OpAnd // logical: non-zero operands
	OpOr
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpMin: "min", OpMax: "max",
	OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">=", OpEQ: "==", OpNE: "!=",
	OpAnd: "&&", OpOr: "||",
}

// Bin applies Op to two sub-expressions.
type Bin struct {
	Op   Op
	L, R Expr
}

// Not is logical negation: 1 when the operand is zero, else 0.
type Not struct {
	X Expr
}

func (Const) expr() {}
func (Var) expr()   {}
func (*Bin) expr()  {}
func (*Not) expr()  {}

func (c Const) String() string { return fmt.Sprintf("%d", int64(c)) }
func (v Var) String() string   { return string(v) }

// Apply computes l op r. It is the one definition of the IR's
// arithmetic: it dispatches through opFuncs, internal/analysis and the
// compiler fold constants through it, and the compiled engine's
// closures call the same per-operator functions directly, so none of
// them can disagree.
func (op Op) Apply(l, r int64) int64 {
	if !op.valid() {
		panic(fmt.Sprintf("taskir: unknown op %d", op))
	}
	return opFuncs[op](l, r)
}

func (op Op) valid() bool { return uint(op) < uint(len(opFuncs)) }

// opFuncs maps each operator to its function.
var opFuncs = [...]func(l, r int64) int64{
	OpAdd: add, OpSub: sub, OpMul: mul, OpDiv: div, OpMod: mod,
	OpMin: minOp, OpMax: maxOp,
	OpLT: lt, OpLE: le, OpGT: gt, OpGE: ge, OpEQ: eq, OpNE: ne,
	OpAnd: and, OpOr: or,
}

// The operators, one small function each: the compiled engine's
// closures call them directly, so they inline there.

func add(l, r int64) int64 { return l + r }
func sub(l, r int64) int64 { return l - r }
func mul(l, r int64) int64 { return l * r }

func div(l, r int64) int64 {
	if r == 0 {
		return 0
	}
	return l / r
}

func mod(l, r int64) int64 {
	if r == 0 {
		return 0
	}
	return l % r
}

func minOp(l, r int64) int64 {
	if l < r {
		return l
	}
	return r
}

func maxOp(l, r int64) int64 {
	if l > r {
		return l
	}
	return r
}

func lt(l, r int64) int64  { return b2i(l < r) }
func le(l, r int64) int64  { return b2i(l <= r) }
func gt(l, r int64) int64  { return b2i(l > r) }
func ge(l, r int64) int64  { return b2i(l >= r) }
func eq(l, r int64) int64  { return b2i(l == r) }
func ne(l, r int64) int64  { return b2i(l != r) }
func and(l, r int64) int64 { return b2i(l != 0 && r != 0) }
func or(l, r int64) int64  { return b2i(l != 0 || r != 0) }

func (b *Bin) String() string {
	if b.Op == OpMin || b.Op == OpMax {
		return fmt.Sprintf("%s(%s, %s)", opNames[b.Op], b.L, b.R)
	}
	return fmt.Sprintf("(%s %s %s)", b.L, opNames[b.Op], b.R)
}

func (n *Not) String() string { return fmt.Sprintf("!(%s)", n.X) }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Convenience constructors keep workload definitions readable.

// Add returns l + r.
func Add(l, r Expr) Expr { return &Bin{OpAdd, l, r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return &Bin{OpSub, l, r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return &Bin{OpMul, l, r} }

// Div returns l / r (0 when r is 0).
func Div(l, r Expr) Expr { return &Bin{OpDiv, l, r} }

// Mod returns l % r (0 when r is 0).
func Mod(l, r Expr) Expr { return &Bin{OpMod, l, r} }

// Min returns the smaller of l and r.
func Min(l, r Expr) Expr { return &Bin{OpMin, l, r} }

// Max returns the larger of l and r.
func Max(l, r Expr) Expr { return &Bin{OpMax, l, r} }

// LT returns 1 when l < r.
func LT(l, r Expr) Expr { return &Bin{OpLT, l, r} }

// LE returns 1 when l <= r.
func LE(l, r Expr) Expr { return &Bin{OpLE, l, r} }

// GT returns 1 when l > r.
func GT(l, r Expr) Expr { return &Bin{OpGT, l, r} }

// GE returns 1 when l >= r.
func GE(l, r Expr) Expr { return &Bin{OpGE, l, r} }

// EQ returns 1 when l == r.
func EQ(l, r Expr) Expr { return &Bin{OpEQ, l, r} }

// NE returns 1 when l != r.
func NE(l, r Expr) Expr { return &Bin{OpNE, l, r} }

// And returns 1 when both operands are non-zero.
func And(l, r Expr) Expr { return &Bin{OpAnd, l, r} }

// Or returns 1 when either operand is non-zero.
func Or(l, r Expr) Expr { return &Bin{OpOr, l, r} }

// exprVars appends the variables read by e to dst and returns it.
func exprVars(e Expr, dst []string) []string {
	switch x := e.(type) {
	case Const:
	case Var:
		dst = append(dst, string(x))
	case *Bin:
		dst = exprVars(x.L, dst)
		dst = exprVars(x.R, dst)
	case *Not:
		dst = exprVars(x.X, dst)
	default:
		panic(fmt.Sprintf("taskir: unknown expression type %T", e))
	}
	return dst
}

// ExprVars returns the variables read by e in first-occurrence order.
func ExprVars(e Expr) []string { return exprVars(e, nil) }
