package features

import (
	"fmt"
	"sort"
	"strconv"
)

// WireTrace is the JSON wire form of a Trace, used by the dvfsd
// serving API: the client records features by running the prediction
// slice (or the instrumented program) locally and ships the sparse
// trace to the daemon, which vectorizes it under the trained model's
// schema. Counter values are keyed by decimal FID (JSON object keys
// are strings); call-address sets are keyed the same way with the
// addresses sorted ascending, so encoding is deterministic.
type WireTrace struct {
	// Counts holds branch/loop counter values keyed by decimal FID.
	Counts map[string]int64 `json:"counts,omitempty"`
	// Calls holds the sorted addresses each call-site FID dispatched
	// to, keyed by decimal FID.
	Calls map[string][]int64 `json:"calls,omitempty"`
}

// Wire converts the trace to its wire form. The result shares no
// state with the trace.
func (t *Trace) Wire() WireTrace {
	w := WireTrace{}
	if counts := t.Counts(); len(counts) > 0 {
		w.Counts = make(map[string]int64, len(counts))
		for fid, v := range counts {
			w.Counts[strconv.Itoa(fid)] = v
		}
	}
	if len(t.calls) > 0 {
		w.Calls = map[string][]int64{}
		for _, c := range t.calls {
			key := strconv.Itoa(c.fid)
			w.Calls[key] = append(w.Calls[key], c.addr)
		}
		for _, addrs := range w.Calls {
			sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		}
	}
	return w
}

// Trace reconstructs a Trace from the wire form. Malformed FID keys
// are an error — a serving endpoint must reject them, not guess. The
// trace's size and the work to decode it are bounded by the wire
// form's, whatever FIDs it names: a FID outside the dense range is
// kept in a map (see denseFIDs).
func (w WireTrace) Trace() (*Trace, error) {
	tr := NewTrace()
	for key, v := range w.Counts {
		fid, err := strconv.Atoi(key)
		if err != nil {
			return nil, fmt.Errorf("features: bad counter FID key %q", key)
		}
		// Keys naming one FID ("7", "07") keep one value, as a map
		// keyed by FID would.
		tr.AddFeature(fid, v-tr.Count(fid))
	}
	// Keys naming one FID ("7", "07") pool their addresses. Sorting
	// makes duplicates adjacent, so each distinct pair is appended once
	// without a quadratic search.
	calls := map[int][]int64{}
	for key, addrs := range w.Calls {
		fid, err := strconv.Atoi(key)
		if err != nil {
			return nil, fmt.Errorf("features: bad call FID key %q", key)
		}
		calls[fid] = append(calls[fid], addrs...)
	}
	for fid, addrs := range calls {
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for i, a := range addrs {
			if i == 0 || a != addrs[i-1] {
				tr.calls = append(tr.calls, callAddr{fid, a})
			}
		}
	}
	return tr, nil
}
