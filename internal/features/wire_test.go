package features

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"
)

func TestWireTraceRoundTrip(t *testing.T) {
	tr := NewTrace()
	tr.AddFeature(3, 17)
	tr.AddFeature(7, 1)
	tr.AddFeature(7, 4)
	tr.RecordCall(5, 9)
	tr.RecordCall(5, 2)
	tr.RecordCall(11, 42)
	// Counters whose events sum to zero are still part of the trace.
	tr.AddFeature(9, 0)
	tr.AddFeature(4, 3)
	tr.AddFeature(4, -3)
	if w := tr.Wire(); len(w.Counts) != 4 || w.Counts["9"] != 0 || w.Counts["4"] != 0 {
		t.Fatalf("wire counts %v, want 3, 4, 7 and 9 with zero sums kept", w.Counts)
	}

	data, err := json.Marshal(tr.Wire())
	if err != nil {
		t.Fatal(err)
	}
	var w WireTrace
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	got, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counts(), tr.Counts()) {
		t.Errorf("counts: got %v want %v", got.Counts(), tr.Counts())
	}
	if !reflect.DeepEqual(got.CallAddrs(), tr.CallAddrs()) {
		t.Errorf("calls: got %v want %v", got.CallAddrs(), tr.CallAddrs())
	}
}

func TestWireTraceEmpty(t *testing.T) {
	data, err := json.Marshal(NewTrace().Wire())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{}" {
		t.Errorf("empty trace encodes as %s, want {}", data)
	}
	var w WireTrace
	if err := json.Unmarshal([]byte("{}"), &w); err != nil {
		t.Fatal(err)
	}
	tr, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Counts()) != 0 || len(tr.CallAddrs()) != 0 {
		t.Errorf("empty wire decodes non-empty: %v %v", tr.Counts(), tr.CallAddrs())
	}
}

func TestWireTraceRejectsBadKeys(t *testing.T) {
	for _, raw := range []string{
		`{"counts":{"abc":1}}`,
		`{"calls":{"1.5":[2]}}`,
	} {
		var w WireTrace
		if err := json.Unmarshal([]byte(raw), &w); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Trace(); err == nil {
			t.Errorf("bad key in %s accepted", raw)
		}
	}
}

// Vectorizing a decoded wire trace must match vectorizing the original
// — the serving daemon depends on this equivalence.
func TestWireTraceVectorizeEquivalence(t *testing.T) {
	tr := NewTrace()
	tr.AddFeature(0, 5)
	tr.AddFeature(2, 9)
	tr.RecordCall(1, 7)

	cols := []Column{
		{Kind: ColCounter, FID: 0, Name: "loop#0"},
		{Kind: ColCallAddr, FID: 1, Addr: 7, Name: "call#1@addr7"},
		{Kind: ColCounter, FID: 2, Name: "branch#2"},
	}
	s := NewSchemaFromColumns(cols)
	got, err := tr.Wire().Trace()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Vectorize(got), s.Vectorize(tr)) {
		t.Errorf("vectorized wire trace differs: %v vs %v", s.Vectorize(got), s.Vectorize(tr))
	}
}

// A client names FIDs; the decoded trace must not grow with their
// values. FIDs outside the dense range still decode, round-trip and
// vectorize like any other FID: negative and unknown ones match no
// column.
func TestWireTraceForeignFIDs(t *testing.T) {
	w := WireTrace{
		Counts: map[string]int64{"9223372036854775807": 5, "-3": 7, "1024": 1, "2": 4},
		Calls:  map[string][]int64{"-9223372036854775808": {1}, "1": {3, 3, -2}},
	}
	tr, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if n := cap(tr.counts) + cap(tr.set); n > 2*denseFIDs {
		t.Fatalf("decoded trace holds %d dense entries for 6 keys", n)
	}
	want := map[int]int64{math.MaxInt64: 5, -3: 7, 1024: 1, 2: 4}
	if got := tr.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counts %v, want %v", got, want)
	}
	back, err := tr.Wire().Trace()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Counts(), tr.Counts()) || !reflect.DeepEqual(back.CallAddrs(), tr.CallAddrs()) {
		t.Fatalf("round trip: %v %v, want %v %v", back.Counts(), back.CallAddrs(), tr.Counts(), tr.CallAddrs())
	}
	s := NewSchemaFromColumns([]Column{
		{Kind: ColCounter, FID: 2},
		{Kind: ColCallAddr, FID: 1, Addr: -2},
		{Kind: ColCallAddr, FID: 1, Addr: 4},
	})
	if got := s.Vectorize(tr); !reflect.DeepEqual(got, []float64{4, 1, 0}) {
		t.Fatalf("vectorized %v, want [4 1 0]", got)
	}
}

// Decoding and vectorizing a trace of many FIDs outside the dense
// range takes time linear in the keys. A request body of a few MiB
// holds hundreds of thousands of them, so a search per key over the
// ones already decoded would hold a CPU for minutes.
func TestWireTraceManyFarKeysLinear(t *testing.T) {
	const n = 200_000
	w := WireTrace{Counts: make(map[string]int64, n)}
	for i := 0; i < n/2; i++ {
		w.Counts[strconv.Itoa(denseFIDs+i)] = int64(i)
		w.Counts[strconv.Itoa(-1-i)] = int64(i)
	}
	cols := make([]Column, 64)
	for i := range cols {
		cols[i] = Column{Kind: ColCounter, FID: denseFIDs + 1000*i}
	}
	s := NewSchemaFromColumns(cols)
	start := time.Now()
	tr, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	x := s.Vectorize(tr)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("decoding and vectorizing %d far keys took %v", n, d)
	}
	if len(tr.Counts()) != n || x[1] != 1000 {
		t.Fatalf("decoded %d counters, column 1 = %v; want %d and 1000", len(tr.Counts()), x[1], n)
	}
}

// FuzzWireTrace decodes arbitrary JSON as a wire trace. Decoding must
// not panic, must keep the trace's storage bounded by the input rather
// than by the FIDs it names, and Wire must round-trip what decoded.
func FuzzWireTrace(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"counts":{"0":3,"2":0},"calls":{"1":[7,2,7]}}`,
		`{"counts":{"9223372036854775807":1,"-1":2}}`,
		`{"calls":{"1023":[9223372036854775807,-9223372036854775808]}}`,
		`{"counts":{"7":1,"07":2,"+7":3}}`,
		`{"calls":{"7":[1,2],"07":[2,1],"-0":[5]}}`,
		`{"counts":{"x":1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireTrace
		if json.Unmarshal(data, &w) != nil {
			return
		}
		tr, err := w.Trace()
		if err != nil {
			return
		}
		keys, addrs := len(w.Counts), 0
		for _, a := range w.Calls {
			addrs += len(a)
		}
		if len(tr.counts) > denseFIDs || len(tr.far) > keys || len(tr.calls) > addrs {
			t.Fatalf("trace of %d keys and %d addresses holds %d dense, %d far, %d calls",
				keys, addrs, len(tr.counts), len(tr.far), len(tr.calls))
		}
		w2 := tr.Wire()
		back, err := w2.Trace()
		if err != nil {
			t.Fatalf("re-decoding %+v: %v", w2, err)
		}
		if !reflect.DeepEqual(back.Counts(), tr.Counts()) || !reflect.DeepEqual(back.CallAddrs(), tr.CallAddrs()) {
			t.Fatalf("round trip of %+v changed the trace", w2)
		}
		if !reflect.DeepEqual(back.Wire(), w2) {
			t.Fatalf("wire form is not canonical: %+v then %+v", w2, back.Wire())
		}
	})
}
