package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// API. Name is "<layer>.<call>" (the layer is the repository package,
// or "http" for the client side of loopback requests); Tag carries the
// app, model or window the call served.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for roots
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory for one goroutine; the traced run
// writes them out when it ends. A nil *tracer is the untraced run:
// begin and end are no-ops, so the measured code paths are the same
// with tracing on and off apart from the clock reads.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name, tag string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Tag: tag, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// durations returns the durations of every span with the given name
// (and tag, unless tag is "*").
func (t *tracer) durations(name, tag string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (tag == "*" || s.Tag == tag) {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// total sums durations(name, tag).
func (t *tracer) total(name, tag string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name, tag) {
		sum += d
	}
	return sum
}

// layerOf maps a span name to its layer.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes returns each layer's self time: its spans' durations minus
// the parts their child spans cover. Spans of one tracer nest without
// overlap, so the children's durations can simply be subtracted.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[layerOf(s.Name)] += time.Duration(self[i])
	}
	return out
}

// rootTime is the total duration of the root spans: the traced wall
// time the self times partition.
func (t *tracer) rootTime() time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 {
			sum += time.Duration(s.End - s.Start)
		}
	}
	return sum
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Layer string
	Self  time.Duration
	Share float64
}

// layerTable sorts layers by self time, largest first.
func (t *tracer) layerTable() []layerRow {
	root := t.rootTime()
	var rows []layerRow
	for l, d := range t.selfTimes() {
		share := 0.0
		if root > 0 {
			share = float64(d) / float64(root)
		}
		rows = append(rows, layerRow{Layer: l, Self: d, Share: share})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Layer < rows[j].Layer
	})
	return rows
}

// adopt appends another tracer's spans (recorded on another goroutine)
// with their IDs and times rebased onto t.
func (t *tracer) adopt(o *tracer) {
	off := int32(len(t.spans))
	shift := int64(o.t0.Sub(t.t0))
	for _, s := range o.spans {
		s.ID += off
		if s.Parent >= 0 {
			s.Parent += off
		}
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
}
