package platform

import "sync"

// Energy accounting for anything that walks a job timeline from the
// outside — the replay engine's reconstruction and counterfactuals,
// the daemon's live meter, the fleet health tracker. The simulator keeps its
// own integrator (it splits segments at sampling boundaries and is the
// reference those layers are checked against); everything else prices
// the same four segments through one PowerTable and one Ledger, so
// their numbers agree bit for bit.

// Breakdown attributes energy to activities [J].
type Breakdown struct {
	// ExecJ is energy spent executing jobs.
	ExecJ float64 `json:"exec_j"`
	// PredictorJ is energy spent running prediction slices (including
	// helper-core energy under overlapped placements).
	PredictorJ float64 `json:"predictor_j"`
	// SwitchJ is energy spent in DVFS transitions.
	SwitchJ float64 `json:"switch_j"`
	// IdleJ is energy spent between jobs.
	IdleJ float64 `json:"idle_j"`
}

// Total sums the breakdown.
func (b Breakdown) Total() float64 { return b.ExecJ + b.PredictorJ + b.SwitchJ + b.IdleJ }

// PowerTable is a platform's power curves flattened into
// index-addressed tables, built once per platform, so pricing a
// segment is a load and a multiply.
type PowerTable struct {
	active, idle []float64
	sw           []float64 // [from*n + to]
}

// NewPowerTable tabulates p's active, idle and switch power per level.
func NewPowerTable(p *Platform) *PowerTable {
	n := p.NumLevels()
	t := &PowerTable{
		active: make([]float64, n),
		idle:   make([]float64, n),
		sw:     make([]float64, n*n),
	}
	for i, l := range p.Levels {
		t.active[i] = p.ActivePower(l)
		t.idle[i] = p.IdlePower(l)
		for j, to := range p.Levels {
			t.sw[i*n+j] = p.SwitchPower(l, to)
		}
	}
	return t
}

// powerTables memoizes PowerTableByName: platform name → *PowerTable.
var powerTables sync.Map

// PowerTableByName returns the power table of the platform ByName
// resolves name to, built once per name and shared read-only; nil when
// name does not resolve (failures are not remembered, so arbitrary
// names cannot grow the memo).
func PowerTableByName(name string) *PowerTable {
	if t, ok := powerTables.Load(name); ok {
		return t.(*PowerTable)
	}
	p, err := ByName(name)
	if err != nil {
		return nil
	}
	t, _ := powerTables.LoadOrStore(name, NewPowerTable(p))
	return t.(*PowerTable)
}

// Active returns the active power at level index i; false when i is
// not a level of the platform.
func (t *PowerTable) Active(i int) (float64, bool) {
	if i < 0 || i >= len(t.active) {
		return 0, false
	}
	return t.active[i], true
}

// clamp maps an out-of-range level index to the top level, the level
// a platform boots at.
func (t *PowerTable) clamp(i int) int {
	if i < 0 || i >= len(t.active) {
		return len(t.active) - 1
	}
	return i
}

// ledgerEps bounds the idle gaps the ledger does not charge: gaps
// that short are floating-point residue of summed segment lengths.
const ledgerEps = 1e-12

// Ledger charges one timeline's segments against a PowerTable and
// keeps the timeline's clock. Level indices outside the platform are
// priced at the top level.
type Ledger struct {
	table *PowerTable
	now   float64
	brk   Breakdown
}

// NewLedger starts a timeline at time zero.
func NewLedger(t *PowerTable) Ledger { return Ledger{table: t} }

// IdleUntil idles at level up to time t and returns the joules
// charged. A clock already at or past t stays where it is; a gap of at
// most 1e-12 s moves the clock but is not charged.
//
//dvfs:hotpath
func (l *Ledger) IdleUntil(t float64, level int) float64 {
	if t <= l.now {
		return 0
	}
	var j float64
	if gap := t - l.now; gap > ledgerEps {
		j = l.table.idle[l.table.clamp(level)] * gap
		l.brk.IdleJ += j
	}
	l.now = t
	return j
}

// Run charges one job: predSec of prediction slice at the from level,
// switchSec of DVFS transition from → to, and execSec of execution at
// the to level, advancing the clock by their sum. It returns the
// joules charged.
//
//dvfs:hotpath
func (l *Ledger) Run(from, to int, predSec, switchSec, execSec float64) float64 {
	from, to = l.table.clamp(from), l.table.clamp(to)
	var pred, sw float64
	if predSec > 0 {
		pred = l.table.active[from] * predSec
		l.brk.PredictorJ += pred
		l.now += predSec
	}
	if switchSec > 0 {
		sw = l.table.sw[from*len(l.table.active)+to] * switchSec
		l.brk.SwitchJ += sw
		l.now += switchSec
	}
	exec := l.table.active[to] * execSec
	l.brk.ExecJ += exec
	l.now += execSec
	return pred + sw + exec
}

// Now returns the timeline's clock in seconds.
func (l *Ledger) Now() float64 { return l.now }

// Breakdown returns the energy charged so far.
func (l *Ledger) Breakdown() Breakdown { return l.brk }
