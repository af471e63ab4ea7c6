package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestPctNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := newDist(xs)
	if v, ok := d.pct(0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with exactly ten beyond", v, ok)
	}
	if _, ok := newDist(xs[:999]).pct(0.99); ok {
		t.Fatal("p99 of 999 samples has nine beyond it and must not be reported")
	}
	if v, ok := newDist(xs[:20]).pct(0.50); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, ok)
	}
	if _, ok := newDist(xs[:19]).pct(0.50); ok {
		t.Fatal("p50 of 19 samples has nine beyond it and must not be reported")
	}
	if _, ok := newDist(nil).pct(0.5); ok {
		t.Fatal("an empty dist reports no percentile")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "sim.run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.job_start", Start: 10, End: 50},
		{ID: 2, Parent: 1, Name: "slicer.run", Start: 12, End: 45},
		{ID: 3, Parent: 0, Name: "taskir.run", Start: 60, End: 80},
	}}
	self := tr.selfTimes()
	want := map[string]int64{"sim": 40, "core": 7, "slicer": 33, "taskir": 20}
	for l, w := range want {
		if int64(self[l]) != w {
			t.Errorf("self[%s] = %d, want %d", l, self[l], w)
		}
	}
	if tr.rootTime() != 100 {
		t.Errorf("rootTime = %d, want 100", tr.rootTime())
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json's metric and
// workload lists in step with what the harness reports.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(b.Workloads), len(workloadOrder))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadOrder[i])
		}
	}
	for _, c := range []struct {
		name string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, harness %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i].Name != c.want[i].Name || c.got[i].Unit != c.want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]", c.name, i,
					c.got[i].Name, c.got[i].Unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}
