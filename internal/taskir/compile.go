package taskir

import (
	"fmt"
	"sync"
)

// Compiled is a program lowered for execution. Compile resolves every
// variable name to an integer slot once and turns statements and
// expressions into closures over a frame of slots, so a run does no
// string hashing between loading its inputs and storing its results.
// A Compiled is immutable and safe for concurrent use; each run
// borrows a frame from a pool and returns it.
type Compiled struct {
	// names maps a slot to its variable name.
	names  []string
	body   []stmtFn
	frames sync.Pool
}

// slot is one variable's storage in a frame. The local value shadows
// the global one on read, as Env's local layer shadows its globals.
type slot struct {
	local, global int64
	hasLocal      bool
	isGlobal      bool
	// dirty marks a global written by an unfrozen run; it is stored
	// back into the caller's globals when the run ends.
	dirty bool
	// undef records a read of the slot while it was undefined, in
	// runs that track such reads (Env.TrackReads).
	undef bool
}

// frame is the mutable state of one run.
type frame struct {
	slots []slot
	// frozen redirects global writes into the local value, as
	// Env.Freeze does.
	frozen bool
	track  bool
	rec    FeatureRecorder
	work   Work
	// maxSteps bounds work.Stmts (RunOptions.MaxSteps).
	maxSteps int64
}

type (
	stmtFn func(*frame) error
	exprFn func(*frame) int64
)

// Compile lowers p for execution. The program must not be modified
// afterwards: the compiled form captures its statements and constants.
func Compile(p *Program) *Compiled {
	cc := &compiler{index: map[string]int{}}
	body := cc.block(p.Body)
	n := len(cc.names)
	c := &Compiled{names: cc.names, body: body}
	c.frames.New = func() any { return &frame{slots: make([]slot, n)} }
	return c
}

// Run executes one job. params are the job's locals and globals its
// persistent state; global writes are stored back into globals when
// the run ends, including when it ends in an error.
func (c *Compiled) Run(globals, params map[string]int64, opts RunOptions) (Work, error) {
	fr := c.load(globals, params, false, false)
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
	fr := c.load(globals, params, true, false)
	w, err := c.exec(fr, opts)
	c.frames.Put(fr)
	return w, err
}

// runEnv executes one job over env's layers and stores the frame back
// into them: globals (unless frozen), locals and undefined reads.
func (c *Compiled) runEnv(env *Env, opts RunOptions) (Work, error) {
	fr := c.load(env.globals, env.locals, env.frozen, env.undefReads != nil)
	w, err := c.exec(fr, opts)
	c.storeGlobals(fr, env.globals)
	for i, name := range c.names {
		s := &fr.slots[i]
		if s.hasLocal {
			env.locals[name] = s.local
		}
		if s.undef {
			env.undefReads[name] = true
		}
	}
	c.frames.Put(fr)
	return w, err
}

func (c *Compiled) load(globals, locals map[string]int64, frozen, track bool) *frame {
	fr := c.frames.Get().(*frame)
	fr.frozen, fr.track = frozen, track
	for i, name := range c.names {
		var s slot
		s.local, s.hasLocal = locals[name]
		s.global, s.isGlobal = globals[name]
		fr.slots[i] = s
	}
	return fr
}

func (c *Compiled) storeGlobals(fr *frame, globals map[string]int64) {
	for i := range fr.slots {
		if s := &fr.slots[i]; s.dirty {
			globals[c.names[i]] = s.global
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

// get reads slot i: the local value, else the global, else 0.
func (fr *frame) get(i int) int64 {
	s := &fr.slots[i]
	if s.hasLocal {
		return s.local
	}
	if s.isGlobal {
		return s.global
	}
	if fr.track {
		s.undef = true
	}
	return 0
}

// set writes slot i: a global writes through unless the frame is
// frozen; everything else becomes a local.
func (fr *frame) set(i int, v int64) {
	s := &fr.slots[i]
	if s.isGlobal && !fr.frozen {
		s.global, s.dirty = v, true
		return
	}
	s.local, s.hasLocal = v, true
}

// block executes statements in order, charging each one a step before
// it runs.
func (fr *frame) block(b []stmtFn) error {
	for _, s := range b {
		fr.work.Stmts++
		fr.work.CPU += StmtCostCPU
		if fr.work.Stmts > fr.maxSteps {
			return ErrStepLimit
		}
		if err := s(fr); err != nil {
			return err
		}
	}
	return nil
}

type compiler struct {
	names []string
	index map[string]int
}

func (cc *compiler) slot(name string) int {
	if i, ok := cc.index[name]; ok {
		return i
	}
	cc.index[name] = len(cc.names)
	cc.names = append(cc.names, name)
	return len(cc.names) - 1
}

func (cc *compiler) block(stmts []Stmt) []stmtFn {
	out := make([]stmtFn, len(stmts))
	for i, s := range stmts {
		out[i] = cc.stmt(s)
	}
	return out
}

func (cc *compiler) stmt(s Stmt) stmtFn {
	switch st := s.(type) {
	case *Assign:
		dst, e := cc.slot(st.Dst), cc.expr(st.Expr)
		return func(fr *frame) error {
			fr.set(dst, e(fr))
			return nil
		}
	case *Compute:
		cpu, mem := st.Work, st.MemNS*1e-9
		return func(fr *frame) error {
			fr.work.CPU += cpu
			fr.work.MemSec += mem
			return nil
		}
	case *ComputeScaled:
		units, workPer, memNSPer := cc.expr(st.Units), st.WorkPer, st.MemNSPer
		return func(fr *frame) error {
			if n := units(fr); n > 0 {
				fr.work.CPU += workPer * float64(n)
				fr.work.MemSec += memNSPer * float64(n) * 1e-9
			}
			return nil
		}
	case *If:
		cond, then, els := cc.expr(st.Cond), cc.block(st.Then), cc.block(st.Else)
		return func(fr *frame) error {
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
		idx := -1
		if st.IndexVar != "" {
			idx = cc.slot(st.IndexVar)
		}
		return func(fr *frame) error {
			n := count(fr)
			for i := int64(0); i < n; i++ {
				fr.work.CPU += LoopIterCostCPU
				if idx >= 0 {
					fr.set(idx, i)
				}
				if err := fr.block(body); err != nil {
					return err
				}
			}
			return nil
		}
	case *Call:
		target := cc.expr(st.Target)
		funcs := make(map[int64][]stmtFn, len(st.Funcs))
		for addr, body := range st.Funcs {
			funcs[addr] = cc.block(body)
		}
		return func(fr *frame) error {
			// An address with no body executes nothing.
			return fr.block(funcs[target(fr)])
		}
	case *FeatAdd:
		fid, amount := st.FID, cc.expr(st.Amount)
		return func(fr *frame) error {
			if fr.rec != nil {
				fr.rec.AddFeature(fid, amount(fr))
			}
			return nil
		}
	case *FeatCall:
		fid, target := st.FID, cc.expr(st.Target)
		return func(fr *frame) error {
			if fr.rec != nil {
				fr.rec.RecordCall(fid, target(fr))
			}
			return nil
		}
	default:
		return func(*frame) error {
			return fmt.Errorf("taskir: cannot interpret statement type %T", s)
		}
	}
}

func (cc *compiler) expr(e Expr) exprFn {
	switch x := e.(type) {
	case Const:
		v := int64(x)
		return func(*frame) int64 { return v }
	case Var:
		i := cc.slot(string(x))
		return func(fr *frame) int64 { return fr.get(i) }
	case *Bin:
		return cc.bin(x)
	case *Not:
		y := cc.expr(x.X)
		return func(fr *frame) int64 { return b2i(y(fr) == 0) }
	}
	panic(fmt.Sprintf("taskir: unknown expression type %T", e))
}

// bin compiles a binary expression. The operand shapes the loop bodies
// of prediction slices are made of (v op c, v op v, e op c) read their
// variables and constants in place instead of through closure calls of
// their own.
func (cc *compiler) bin(x *Bin) exprFn {
	op := x.Op
	lv, lVar := x.L.(Var)
	rv, rVar := x.R.(Var)
	rc, rConst := x.R.(Const)
	switch {
	case lVar && rConst:
		i, c := cc.slot(string(lv)), int64(rc)
		return func(fr *frame) int64 { return op.Apply(fr.get(i), c) }
	case lVar && rVar:
		i, j := cc.slot(string(lv)), cc.slot(string(rv))
		return func(fr *frame) int64 { return op.Apply(fr.get(i), fr.get(j)) }
	case rConst:
		l, c := cc.expr(x.L), int64(rc)
		return func(fr *frame) int64 { return op.Apply(l(fr), c) }
	}
	l, r := cc.expr(x.L), cc.expr(x.R)
	return func(fr *frame) int64 { return op.Apply(l(fr), r(fr)) }
}
