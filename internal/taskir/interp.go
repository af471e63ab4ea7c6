package taskir

import "errors"

// Work is the abstract cost of executing a job: CPU work units that
// scale with clock frequency, plus memory-bound time that does not.
// It instantiates the classical DVFS performance model used in the
// paper (§3.4): t = Tmem + Ndependent/f.
type Work struct {
	// CPU is frequency-dependent work, in cycles at the platform's
	// reference scale (Ndependent in the paper).
	CPU float64
	// MemSec is frequency-independent memory time in seconds (Tmem).
	MemSec float64
	// Stmts counts executed IR statements (loop iterations included);
	// it measures interpreter footprint, e.g. for slice size stats.
	Stmts int64
}

// Add accumulates other into w.
func (w *Work) Add(other Work) {
	w.CPU += other.CPU
	w.MemSec += other.MemSec
	w.Stmts += other.Stmts
}

// TimeAt returns the execution time in seconds at frequency f (Hz).
func (w Work) TimeAt(f float64) float64 {
	return w.MemSec + w.CPU/f
}

// FeatureRecorder receives feature events during interpretation of an
// instrumented program. A nil recorder is valid and records nothing.
type FeatureRecorder interface {
	// AddFeature adds amount to counter fid.
	AddFeature(fid int, amount int64)
	// RecordCall notes that call site fid dispatched to addr.
	RecordCall(fid int, addr int64)
}

// Interpreter cost constants. Every executed statement carries a small
// bookkeeping cost so that a prediction slice — which is all control
// flow and counter updates — has a realistic, control-flow-proportional
// execution time, as in the paper's measured predictor overheads
// (Fig 17: ~3 ms average, ~24 ms for pocketsphinx).
// They are exported so internal/analysis can turn a static bound on
// executed statements into a worst-case CPU-work bound with the same
// cost model the interpreter charges.
const (
	// StmtCostCPU is charged per executed statement. An IR
	// statement stands for a handful of source statements (address
	// computation, loads, the operation itself), so the charge is on
	// the order of a hundred cycles; this is what gives prediction
	// slices their control-flow-proportional, sub-millisecond-to-
	// millisecond cost (Fig 17).
	StmtCostCPU = 150.0
	// LoopIterCostCPU is charged per loop iteration on top of the
	// body's statements (index update + branch).
	LoopIterCostCPU = 50.0
)

// ErrStepLimit reports that a job exceeded the interpreter step budget,
// which indicates a runaway loop in a workload definition.
var ErrStepLimit = errors.New("taskir: interpreter step limit exceeded")

// RunOptions configures interpretation.
type RunOptions struct {
	// MaxSteps bounds executed statements; 0 means the default of 50M.
	MaxSteps int64
	// Recorder receives feature events; may be nil.
	Recorder FeatureRecorder
}

const defaultMaxSteps = 50_000_000

// Run executes one job of the program body in env and returns the work
// performed. It compiles p on every call, so it suits one-off runs;
// callers that run a program per job compile it once and use
// Compiled.Run or Compiled.RunFrozen. When env tracks undefined reads
// (Env.TrackReads), Run compiles the variant that records them; no
// other compiled form checks for them.
func Run(p *Program, env *Env, opts RunOptions) (Work, error) {
	return compile(p, env.undefReads != nil).runEnv(env, opts)
}
