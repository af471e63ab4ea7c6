package taskir

import (
	"fmt"
	"sort"
	"sync"
)

// Compiled is a program lowered for execution. Compile resolves every
// variable name and every constant to an integer slot once and turns
// statements and expressions into closures over a frame of slots, so a
// run does no string hashing between loading its inputs and storing
// its results. A Compiled is immutable and safe for concurrent use;
// each run borrows a frame from a pool and returns it.
type Compiled struct {
	// vars lists the variable slots with their names.
	vars []varSlot
	// init is a fresh frame's value array: zero for the variable
	// slots, the constant for the constant slots.
	init   []int64
	body   []stmtFn
	frames sync.Pool
}

type varSlot struct {
	slot int
	name string
}

// Slot state bits. The visible value lives in frame.vals; these keep
// the layering Env defines: a local shadows a global on read, and a
// global write goes through to the global unless the run is frozen.
const (
	// stLocal: the slot holds a local value.
	stLocal uint8 = 1 << iota
	// stGlobal: the name is a global.
	stGlobal
	// stWrite: writes go to the global (a global in an unfrozen run).
	stWrite
	// stDirty: the global was written and is stored back at the end.
	stDirty
	// stUndef: the slot was read while undefined (tracking runs only).
	stUndef
)

// slot is the per-variable state set keeps beside the visible value.
type slot struct {
	global int64
	state  uint8
}

// frame is the mutable state of one run.
type frame struct {
	// vals holds every slot's visible value: a variable's local, else
	// its global, else 0; a constant slot holds its constant. A read
	// is one load.
	vals  []int64
	slots []slot
	rec   FeatureRecorder
	work  Work
	// maxSteps bounds work.Stmts (RunOptions.MaxSteps).
	maxSteps int64
}

type (
	stmtFn func(*frame) error
	exprFn func(*frame) int64
)

// Compile lowers p for execution. The program must not be modified
// afterwards: the compiled form captures its statements and constants.
func Compile(p *Program) *Compiled { return compile(p, false) }

// compile lowers p. With track set, every variable read goes through
// frame.getTracked, which records reads of undefined variables; only
// taskir.Run over an Env with TrackReads asks for that.
func compile(p *Program, track bool) *Compiled {
	cc := &compiler{index: map[string]int{}, consts: map[int64]int{}, track: track}
	c := &Compiled{body: cc.block(p.Body), vars: cc.vars, init: cc.init}
	c.frames.New = func() any {
		return &frame{vals: append([]int64(nil), c.init...), slots: make([]slot, len(c.init))}
	}
	return c
}

// Run executes one job. params are the job's locals and globals its
// persistent state; global writes are stored back into globals when
// the run ends, including when it ends in an error.
func (c *Compiled) Run(globals, params map[string]int64, opts RunOptions) (Work, error) {
	fr := c.load(globals, params, false)
	w, err := c.exec(fr, opts)
	c.storeGlobals(fr, globals)
	c.frames.Put(fr)
	return w, err
}

// RunFrozen executes one job like Run, except that global writes stay
// in the run's own frame, where later reads of the run see them:
// globals is only read, so concurrent frozen runs may share it. This is
// how a prediction slice runs without side effects (§3.2).
func (c *Compiled) RunFrozen(globals, params map[string]int64, opts RunOptions) (Work, error) {
	fr := c.load(globals, params, true)
	w, err := c.exec(fr, opts)
	c.frames.Put(fr)
	return w, err
}

// runEnv executes one job over env's layers and stores the frame back
// into them: globals (unless frozen), locals and undefined reads.
func (c *Compiled) runEnv(env *Env, opts RunOptions) (Work, error) {
	fr := c.load(env.globals, env.locals, env.frozen)
	w, err := c.exec(fr, opts)
	c.storeGlobals(fr, env.globals)
	for _, v := range c.vars {
		st := fr.slots[v.slot].state
		if st&stLocal != 0 {
			env.locals[v.name] = fr.vals[v.slot]
		}
		if st&stUndef != 0 {
			env.undefReads[v.name] = true
		}
	}
	c.frames.Put(fr)
	return w, err
}

func (c *Compiled) load(globals, locals map[string]int64, frozen bool) *frame {
	fr := c.frames.Get().(*frame)
	for _, v := range c.vars {
		local, hasLocal := locals[v.name]
		global, isGlobal := globals[v.name]
		var st uint8
		if isGlobal {
			st = stGlobal
			if !frozen {
				st |= stWrite
			}
		}
		val := global
		if hasLocal {
			st |= stLocal
			val = local
		}
		fr.vals[v.slot] = val
		fr.slots[v.slot] = slot{global: global, state: st}
	}
	return fr
}

func (c *Compiled) storeGlobals(fr *frame, globals map[string]int64) {
	for _, v := range c.vars {
		if s := &fr.slots[v.slot]; s.state&stDirty != 0 {
			globals[v.name] = s.global
		}
	}
}

func (c *Compiled) exec(fr *frame, opts RunOptions) (Work, error) {
	fr.rec = opts.Recorder
	fr.work = Work{}
	fr.maxSteps = opts.MaxSteps
	if fr.maxSteps == 0 {
		fr.maxSteps = defaultMaxSteps
	}
	err := fr.block(c.body)
	fr.rec = nil // a pooled frame must not keep the recorder alive
	return fr.work, err
}

// getTracked reads slot i, recording the read when the slot is
// undefined (neither a local nor a global).
func (fr *frame) getTracked(i int) int64 {
	s := &fr.slots[i]
	if s.state&(stLocal|stGlobal) == 0 {
		s.state |= stUndef
	}
	return fr.vals[i]
}

// set writes slot i: a global writes through unless the frame is
// frozen, and stays hidden behind a local of the same name; everything
// else becomes a local.
func (fr *frame) set(i int, v int64) {
	s := &fr.slots[i]
	if s.state&stWrite != 0 {
		s.global = v
		s.state |= stDirty
		if s.state&stLocal != 0 {
			return
		}
	} else {
		s.state |= stLocal
	}
	fr.vals[i] = v
}

// step charges one statement and reports whether the run is past its
// step budget. Every statement's closure steps before it takes effect,
// which keeps block small enough to inline into the loops and
// branches that run it.
func (fr *frame) step() bool {
	fr.work.Stmts++
	fr.work.CPU += StmtCostCPU
	return fr.work.Stmts > fr.maxSteps
}

// block executes statements in order.
func (fr *frame) block(b []stmtFn) error {
	for _, s := range b {
		if err := s(fr); err != nil {
			return err
		}
	}
	return nil
}

// assign is the step and the store of an assignment whose value v a
// shape-fused closure has already computed. Computing it before the
// step cannot be observed: fused closures record no reads.
func (fr *frame) assign(dst int, v int64) error {
	if fr.step() {
		return ErrStepLimit
	}
	fr.set(dst, v)
	return nil
}

type compiler struct {
	index  map[string]int
	consts map[int64]int
	vars   []varSlot
	// init accumulates the initial value of every slot.
	init  []int64
	track bool
}

func (cc *compiler) slot(name string) int {
	if i, ok := cc.index[name]; ok {
		return i
	}
	i := len(cc.init)
	cc.index[name] = i
	cc.vars = append(cc.vars, varSlot{i, name})
	cc.init = append(cc.init, 0)
	return i
}

func (cc *compiler) constSlot(v int64) int {
	if i, ok := cc.consts[v]; ok {
		return i
	}
	cc.consts[v] = len(cc.init)
	cc.init = append(cc.init, v)
	return len(cc.init) - 1
}

// leaf returns the slot whose value e is, when e is one: a constant, a
// binary operator over two constants (folded through Apply), or a
// variable in a run that does not track undefined reads.
func (cc *compiler) leaf(e Expr) (int, bool) {
	switch x := e.(type) {
	case Const:
		return cc.constSlot(int64(x)), true
	case Var:
		if !cc.track {
			return cc.slot(string(x)), true
		}
	case *Bin:
		l, lok := x.L.(Const)
		r, rok := x.R.(Const)
		if lok && rok && x.Op.valid() {
			return cc.constSlot(x.Op.Apply(int64(l), int64(r))), true
		}
	}
	return 0, false
}

// leafOp matches leaf op leaf.
func (cc *compiler) leafOp(e Expr) (b *Bin, i, j int, ok bool) {
	b, ok = e.(*Bin)
	if !ok || !b.Op.valid() {
		return nil, 0, 0, false
	}
	if i, ok = cc.leaf(b.L); !ok {
		return nil, 0, 0, false
	}
	if j, ok = cc.leaf(b.R); !ok {
		return nil, 0, 0, false
	}
	return b, i, j, true
}

func (cc *compiler) block(stmts []Stmt) []stmtFn {
	if len(stmts) == 0 {
		return nil
	}
	out := make([]stmtFn, len(stmts))
	for i, s := range stmts {
		out[i] = cc.stmt(s)
	}
	return out
}

func (cc *compiler) stmt(s Stmt) stmtFn {
	switch st := s.(type) {
	case *Assign:
		return cc.assign(cc.slot(st.Dst), st.Expr)
	case *Compute:
		cpu, mem := st.Work, st.MemNS*1e-9
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			fr.work.CPU += cpu
			fr.work.MemSec += mem
			return nil
		}
	case *ComputeScaled:
		units, workPer, memNSPer := cc.expr(st.Units), st.WorkPer, st.MemNSPer
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			if n := units(fr); n > 0 {
				fr.work.CPU += workPer * float64(n)
				fr.work.MemSec += memNSPer * float64(n) * 1e-9
			}
			return nil
		}
	case *If:
		then, els := cc.block(st.Then), cc.block(st.Else)
		if b, i, j, ok := cc.leafOp(st.Cond); ok {
			if f := ifCmp(b.Op, i, j, then, els); f != nil {
				return f
			}
		}
		cond := cc.expr(st.Cond)
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			if cond(fr) != 0 {
				return fr.block(then)
			}
			return fr.block(els)
		}
	case *While:
		cond, body := cc.expr(st.Cond), cc.block(st.Body)
		id, maxIter := st.ID, st.MaxIter
		if maxIter == 0 {
			maxIter = 100_000
		}
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			for i := int64(0); cond(fr) != 0; i++ {
				if i >= maxIter {
					return fmt.Errorf("taskir: while#%d exceeded %d iterations", id, maxIter)
				}
				fr.work.CPU += LoopIterCostCPU
				if err := fr.block(body); err != nil {
					return err
				}
			}
			return nil
		}
	case *Loop:
		count, body := cc.expr(st.Count), cc.block(st.Body)
		if st.IndexVar == "" {
			return func(fr *frame) error {
				if fr.step() {
					return ErrStepLimit
				}
				n := count(fr)
				for i := int64(0); i < n; i++ {
					fr.work.CPU += LoopIterCostCPU
					if err := fr.block(body); err != nil {
						return err
					}
				}
				return nil
			}
		}
		idx := cc.slot(st.IndexVar)
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			n := count(fr)
			for i := int64(0); i < n; i++ {
				fr.work.CPU += LoopIterCostCPU
				fr.set(idx, i)
				if err := fr.block(body); err != nil {
					return err
				}
			}
			return nil
		}
	case *Call:
		// The bodies sit in a slice sorted by address and dispatch is
		// a binary search over it.
		target := cc.expr(st.Target)
		addrs := make([]int64, 0, len(st.Funcs))
		for a := range st.Funcs {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		bodies := make([][]stmtFn, len(addrs))
		for i, a := range addrs {
			bodies[i] = cc.block(st.Funcs[a])
		}
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			a := target(fr)
			lo, hi := 0, len(addrs)
			for lo < hi {
				m := int(uint(lo+hi) >> 1)
				if addrs[m] < a {
					lo = m + 1
				} else {
					hi = m
				}
			}
			if lo == len(addrs) || addrs[lo] != a {
				return nil // an address with no body executes nothing
			}
			return fr.block(bodies[lo])
		}
	case *FeatAdd:
		fid := st.FID
		if i, ok := cc.leaf(st.Amount); ok {
			return func(fr *frame) error {
				if fr.step() {
					return ErrStepLimit
				}
				if fr.rec != nil {
					fr.rec.AddFeature(fid, fr.vals[i])
				}
				return nil
			}
		}
		amount := cc.expr(st.Amount)
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			if fr.rec != nil {
				fr.rec.AddFeature(fid, amount(fr))
			}
			return nil
		}
	case *FeatCall:
		fid, target := st.FID, cc.expr(st.Target)
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			if fr.rec != nil {
				fr.rec.RecordCall(fid, target(fr))
			}
			return nil
		}
	default:
		return func(fr *frame) error {
			if fr.step() {
				return ErrStepLimit
			}
			return fmt.Errorf("taskir: cannot interpret statement type %T", s)
		}
	}
}

// assign compiles dst = e. The shapes leaf, leaf op leaf, (leaf op
// leaf) op leaf and e op leaf store from the closure that computes
// them, which evaluates e before the statement's step.
func (cc *compiler) assign(dst int, e Expr) stmtFn {
	if i, ok := cc.leaf(e); ok {
		return func(fr *frame) error { return fr.assign(dst, fr.vals[i]) }
	}
	if b, i, j, ok := cc.leafOp(e); ok {
		return assignLL(b.Op, dst, i, j)
	}
	if b, ok := e.(*Bin); ok && b.Op.valid() {
		if k, ok := cc.leaf(b.R); ok {
			if in, i, j, ok := cc.leafOp(b.L); ok {
				return assignLLL(b.Op, opFuncs[in.Op], dst, i, j, k)
			}
			if !cc.track {
				return assignEL(b.Op, dst, cc.expr(b.L), k)
			}
		}
	}
	// In a tracking run the value may read undefined variables, which
	// must not be recorded past the step limit, so the step comes first.
	v := cc.expr(e)
	return func(fr *frame) error {
		if fr.step() {
			return ErrStepLimit
		}
		fr.set(dst, v(fr))
		return nil
	}
}

func (cc *compiler) expr(e Expr) exprFn {
	if i, ok := cc.leaf(e); ok {
		return func(fr *frame) int64 { return fr.vals[i] }
	}
	switch x := e.(type) {
	case Var:
		i := cc.slot(string(x))
		return func(fr *frame) int64 { return fr.getTracked(i) }
	case *Bin:
		return cc.bin(x)
	case *Not:
		y := cc.expr(x.X)
		return func(fr *frame) int64 { return b2i(y(fr) == 0) }
	}
	panic(fmt.Sprintf("taskir: unknown expression type %T", e))
}

// bin compiles a binary expression. Leaf operands are read in place:
// the shapes leaf op leaf, (leaf op leaf) op leaf and (leaf op leaf)
// op (leaf op leaf) have a closure of their own (fuse.go), so a leaf
// costs no closure call. Any other shape calls its operands' closures
// and its operator's function.
func (cc *compiler) bin(x *Bin) exprFn {
	if !x.Op.valid() {
		l, r := cc.expr(x.L), cc.expr(x.R)
		return func(fr *frame) int64 { return x.Op.Apply(l(fr), r(fr)) }
	}
	if _, i, j, ok := cc.leafOp(x); ok {
		return binLL(x.Op, i, j)
	}
	if l, i, j, ok := cc.leafOp(x.L); ok {
		if k, ok := cc.leaf(x.R); ok {
			return binLLL(x.Op, opFuncs[l.Op], i, j, k)
		}
		if r, k, m, ok := cc.leafOp(x.R); ok {
			return binLLLL(x.Op, opFuncs[l.Op], opFuncs[r.Op], i, j, k, m)
		}
	}
	l, r, f := cc.expr(x.L), cc.expr(x.R), opFuncs[x.Op]
	return func(fr *frame) int64 { return f(l(fr), r(fr)) }
}
