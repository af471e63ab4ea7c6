package taskir

import "fmt"

// refRun is the tree-walking interpreter the compiled engine replaced,
// kept as the test oracle: it walks statements and expressions
// directly and resolves every variable through Env.Get and Env.Set.
// TestCompiledMatchesReference and FuzzCompiledMatchesReference hold
// the engine to its results.
func refRun(p *Program, env *Env, opts RunOptions) (Work, error) {
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	in := &refInterp{env: env, rec: opts.Recorder, remaining: maxSteps}
	if err := in.block(p.Body); err != nil {
		return in.work, err
	}
	return in.work, nil
}

type refInterp struct {
	env       *Env
	rec       FeatureRecorder
	work      Work
	remaining int64
}

func (in *refInterp) eval(e Expr) int64 {
	switch x := e.(type) {
	case Const:
		return int64(x)
	case Var:
		return in.env.Get(string(x))
	case *Bin:
		l := in.eval(x.L)
		r := in.eval(x.R)
		return x.Op.Apply(l, r)
	case *Not:
		return b2i(in.eval(x.X) == 0)
	}
	panic(fmt.Sprintf("taskir: unknown expression type %T", e))
}

func (in *refInterp) step() error {
	in.work.Stmts++
	in.work.CPU += StmtCostCPU
	in.remaining--
	if in.remaining < 0 {
		return ErrStepLimit
	}
	return nil
}

func (in *refInterp) block(stmts []Stmt) error {
	for _, s := range stmts {
		if err := in.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (in *refInterp) stmt(s Stmt) error {
	if err := in.step(); err != nil {
		return err
	}
	switch st := s.(type) {
	case *Assign:
		in.env.Set(st.Dst, in.eval(st.Expr))
	case *Compute:
		in.work.CPU += st.Work
		in.work.MemSec += st.MemNS * 1e-9
	case *ComputeScaled:
		if n := in.eval(st.Units); n > 0 {
			in.work.CPU += st.WorkPer * float64(n)
			in.work.MemSec += st.MemNSPer * float64(n) * 1e-9
		}
	case *If:
		if in.eval(st.Cond) != 0 {
			return in.block(st.Then)
		}
		return in.block(st.Else)
	case *While:
		maxIter := st.MaxIter
		if maxIter == 0 {
			maxIter = 100_000
		}
		for i := int64(0); in.eval(st.Cond) != 0; i++ {
			if i >= maxIter {
				return fmt.Errorf("taskir: while#%d exceeded %d iterations", st.ID, maxIter)
			}
			in.work.CPU += LoopIterCostCPU
			if err := in.block(st.Body); err != nil {
				return err
			}
		}
	case *Loop:
		n := in.eval(st.Count)
		for i := int64(0); i < n; i++ {
			in.work.CPU += LoopIterCostCPU
			if st.IndexVar != "" {
				in.env.Set(st.IndexVar, i)
			}
			if err := in.block(st.Body); err != nil {
				return err
			}
		}
	case *Call:
		addr := in.eval(st.Target)
		if body, ok := st.Funcs[addr]; ok {
			return in.block(body)
		}
	case *FeatAdd:
		if in.rec != nil {
			in.rec.AddFeature(st.FID, in.eval(st.Amount))
		}
	case *FeatCall:
		if in.rec != nil {
			in.rec.RecordCall(st.FID, in.eval(st.Target))
		}
	default:
		return fmt.Errorf("taskir: cannot interpret statement type %T", s)
	}
	return nil
}
