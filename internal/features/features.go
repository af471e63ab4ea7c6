// Package features turns raw control-flow feature events into fixed
// numeric vectors for the execution-time model (paper §3.2–3.3).
//
// Branch and loop counters map directly to columns. Function-pointer
// call addresses are converted to a one-hot encoding — one column per
// (call site, address) pair observed during profiling, set to 1 when
// the job called that address — exactly as described in §3.3.
package features

import (
	"fmt"
	"sort"

	"repro/internal/instrument"
)

// Trace records the feature events of a single job. It implements
// taskir.FeatureRecorder.
//
// Feature IDs are dense (instrument numbers its sites from 0), so the
// counters live in a slice indexed by FID, with a mark for every
// counter that received an event: a counter whose events sum to zero
// is still part of the trace. Call dispatches are a short list of
// distinct (site, address) pairs. A reused trace (Reset) keeps its
// storage, so recording into it does not allocate.
type Trace struct {
	counts []int64
	set    []bool
	// far holds counters whose FID lies outside [0, denseFIDs); only a
	// hand-built or decoded trace has them, and a decoded one may have
	// as many as the client sent keys.
	far   map[int]int64
	calls []callAddr
}

// denseFIDs bounds the FIDs a Trace stores by index, so a decoded
// trace cannot allocate in proportion to a client-chosen FID. Real
// programs have a few dozen sites at most.
const denseFIDs = 1024

// callAddr is one call site and an address it dispatched to.
type callAddr struct {
	fid  int
	addr int64
}

// NewTrace returns an empty per-job trace.
func NewTrace() *Trace { return &Trace{} }

// AddFeature implements taskir.FeatureRecorder.
func (t *Trace) AddFeature(fid int, amount int64) {
	if uint(fid) < uint(len(t.counts)) {
		t.counts[fid] += amount
		t.set[fid] = true
		return
	}
	t.addSlow(fid, amount)
}

func (t *Trace) addSlow(fid int, amount int64) {
	if fid < 0 || fid >= denseFIDs {
		if t.far == nil {
			t.far = map[int]int64{}
		}
		t.far[fid] += amount
		return
	}
	n := min(max(fid+1, 2*len(t.counts)), denseFIDs)
	t.counts = append(t.counts, make([]int64, n-len(t.counts))...)
	t.set = append(t.set, make([]bool, n-len(t.set))...)
	t.counts[fid] = amount
	t.set[fid] = true
}

// RecordCall implements taskir.FeatureRecorder.
func (t *Trace) RecordCall(fid int, addr int64) {
	c := callAddr{fid, addr}
	for _, d := range t.calls {
		if d == c {
			return
		}
	}
	t.calls = append(t.calls, c)
}

// Reset clears the trace for reuse on the next job.
func (t *Trace) Reset() {
	clear(t.counts)
	clear(t.set)
	clear(t.far)
	t.calls = t.calls[:0]
}

// Count returns counter fid's value, 0 when it recorded nothing.
func (t *Trace) Count(fid int) int64 {
	if uint(fid) < uint(len(t.counts)) {
		return t.counts[fid]
	}
	return t.far[fid]
}

// Counts returns the recorded counters keyed by FID, zero sums
// included. It allocates; the decision path reads the trace through
// Schema.VectorizeInto instead.
func (t *Trace) Counts() map[int]int64 {
	m := map[int]int64{}
	for fid, ok := range t.set {
		if ok {
			m[fid] = t.counts[fid]
		}
	}
	for fid, v := range t.far {
		m[fid] = v
	}
	return m
}

// CallAddrs returns the set of addresses each call-site FID dispatched
// to. Like Counts, it allocates.
func (t *Trace) CallAddrs() map[int]map[int64]bool {
	m := map[int]map[int64]bool{}
	for _, c := range t.calls {
		if m[c.fid] == nil {
			m[c.fid] = map[int64]bool{}
		}
		m[c.fid][c.addr] = true
	}
	return m
}

// ColumnKind distinguishes counter columns from call one-hot columns.
type ColumnKind int

// Column kinds.
const (
	// ColCounter is a branch or loop counter value.
	ColCounter ColumnKind = iota
	// ColCallAddr is a 0/1 indicator that a call site invoked an
	// address.
	ColCallAddr
)

// Column describes one entry of the feature vector.
type Column struct {
	Kind ColumnKind
	// FID is the feature site the column derives from.
	FID int
	// Addr is the callee address for ColCallAddr columns.
	Addr int64
	// Name is a stable human-readable label like "loop#3" or
	// "call#5@addr7".
	Name string
}

// Schema is a fixed mapping from feature traces to numeric vectors.
// It is built once from profiling data and reused at run time.
type Schema struct {
	Columns []Column
	// counters lists each counter column with its FID, and calls maps
	// a (call site, address) pair to its indicator column.
	counters []counterCol
	calls    map[callAddr]int
}

type counterCol struct{ fid, col int }

// BuildSchema constructs a schema for the instrumented program from
// profiling traces: counter sites become one column each; call sites
// become one column per distinct address observed across all traces.
// Column order is deterministic: sites by FID, addresses ascending.
func BuildSchema(ip *instrument.Program, traces []*Trace) *Schema {
	// Collect all addresses seen per call site.
	addrs := map[int]map[int64]bool{}
	for _, tr := range traces {
		for _, c := range tr.calls {
			m := addrs[c.fid]
			if m == nil {
				m = map[int64]bool{}
				addrs[c.fid] = m
			}
			m[c.addr] = true
		}
	}
	var cols []Column
	for _, site := range ip.Sites {
		switch site.Kind {
		case instrument.KindBranch, instrument.KindLoop:
			cols = append(cols, Column{
				Kind: ColCounter,
				FID:  site.FID,
				Name: fmt.Sprintf("%s#%d", site.Kind, site.CtrlID),
			})
		case instrument.KindCall:
			seen := addrs[site.FID]
			sorted := make([]int64, 0, len(seen))
			for a := range seen {
				sorted = append(sorted, a)
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, a := range sorted {
				cols = append(cols, Column{
					Kind: ColCallAddr,
					FID:  site.FID,
					Addr: a,
					Name: fmt.Sprintf("call#%d@addr%d", site.CtrlID, a),
				})
			}
		}
	}
	return NewSchemaFromColumns(cols)
}

// Dim returns the feature vector length.
func (s *Schema) Dim() int { return len(s.Columns) }

// Vectorize converts a job trace to a feature vector under the schema.
// Addresses never seen during profiling contribute nothing (their
// one-hot column does not exist), mirroring a deployed predictor that
// can only use columns it was trained with.
func (s *Schema) Vectorize(tr *Trace) []float64 {
	return s.VectorizeInto(nil, tr)
}

// VectorizeInto is Vectorize writing into a caller-supplied buffer:
// the decision hot path hands it a stack array and stays off the heap.
// dst's capacity is reused when it fits (its contents are overwritten
// in full); otherwise a fresh vector is allocated. Returns the vector
// of length s.Dim().
//
//dvfs:hotpath
func (s *Schema) VectorizeInto(dst []float64, tr *Trace) []float64 {
	n := len(s.Columns)
	if cap(dst) < n {
		//dvfs:allow-alloc cold path: caller buffer smaller than the schema
		dst = make([]float64, n)
	}
	x := dst[:n]
	clear(x)
	for _, c := range s.counters {
		x[c.col] = float64(tr.Count(c.fid))
	}
	for _, c := range tr.calls {
		if col, ok := s.calls[c]; ok {
			x[col] = 1
		}
	}
	return x
}

// NeededFIDs maps a set of selected columns (non-zero model
// coefficients) back to the feature sites the prediction slice must
// still compute. A call site is needed if any of its address columns
// is selected.
func (s *Schema) NeededFIDs(selected []int) map[int]bool {
	need := map[int]bool{}
	for _, c := range selected {
		if c < 0 || c >= len(s.Columns) {
			continue
		}
		need[s.Columns[c].FID] = true
	}
	return need
}

// NewSchemaFromColumns reconstructs a schema from a stored column
// list — the deserialization path for distributing trained models
// with a program (§4.2).
func NewSchemaFromColumns(cols []Column) *Schema {
	s := &Schema{
		Columns: append([]Column(nil), cols...),
		calls:   map[callAddr]int{},
	}
	// A FID repeated across counter columns feeds only its last column.
	counterAt := map[int]int{}
	for i, c := range s.Columns {
		switch c.Kind {
		case ColCounter:
			if at, ok := counterAt[c.FID]; ok {
				s.counters[at].col = i
				continue
			}
			counterAt[c.FID] = len(s.counters)
			s.counters = append(s.counters, counterCol{c.FID, i})
		case ColCallAddr:
			s.calls[callAddr{c.FID, c.Addr}] = i
		}
	}
	return s
}
