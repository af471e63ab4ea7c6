package main

import (
	"reflect"
	"testing"

	"repro/internal/taskir"
	"repro/internal/workload"
)

// TestRuntimeUndefReadsParity pins what dvfslint's run-time check
// reports: one Env with TrackReads kept across jobs, ResetLocals and
// SetParams per job, then taskir.Run. The sets were recorded with the
// tree-walking interpreter that taskir.Run replaced. Every workload
// defines everything it reads, so the second table withholds one param
// per run to give the check something to find.
func TestRuntimeUndefReadsParity(t *testing.T) {
	for _, w := range workload.All() {
		if got := runtimeUndefReads(w, 5); got != nil {
			t.Errorf("%s: runtime undefined reads %v, want none", w.Name, got)
		}
	}

	type key struct{ workload, param string }
	want := map[key][]string{
		{"2048", "dir"}:              nil,
		{"2048", "moved"}:            {"moved"},
		{"2048", "merges"}:           {"merges"},
		{"2048", "spawn"}:            {"spawn"},
		{"curseofwar", "simTick"}:    {"simTick"},
		{"curseofwar", "units"}:      {"units"},
		{"curseofwar", "battles"}:    {"battles"},
		{"curseofwar", "dirtyRows"}:  {"dirtyRows"},
		{"ldecode", "frameType"}:     {"frameType"},
		{"ldecode", "motion"}:        {"motion"},
		{"ldecode", "bits"}:          {"bits"},
		{"ldecode", "residual"}:      {"residual"},
		{"pocketsphinx", "frames"}:   {"frames"},
		{"pocketsphinx", "perplex"}:  {"perplex"},
		{"pocketsphinx", "residual"}: {"residual"},
		{"rijndael", "kb"}:           {"kb"},
		{"rijndael", "keyChanged"}:   {"keyChanged"},
		{"rijndael", "residual"}:     {"residual"},
		{"sha", "kb"}:                {"kb"},
		{"uzbl", "cmd"}:              {"cmd"},
		{"uzbl", "pageElems"}:        nil,
		{"uzbl", "scrollLines"}:      {"scrollLines"},
		{"uzbl", "jsOps"}:            nil,
		{"xpilot", "ships"}:          {"ships"},
		{"xpilot", "bullets"}:        {"bullets"},
		{"xpilot", "explosion"}:      {"explosion"},
	}
	seen := 0
	for _, w := range workload.All() {
		for _, p := range w.Prog.Params {
			k := key{w.Name, p}
			exp, ok := want[k]
			if !ok {
				t.Errorf("%v: no pinned set", k)
				continue
			}
			seen++
			gen := w.NewGen(1)
			env := taskir.NewEnv(w.FreshGlobals())
			env.TrackReads()
			for i := 0; i < 5; i++ {
				env.ResetLocals()
				params := gen.Next(i)
				delete(params, p)
				env.SetParams(params)
				if _, err := taskir.Run(w.Prog, env, taskir.RunOptions{}); err != nil {
					break
				}
			}
			if got := env.UndefinedReads(); !reflect.DeepEqual(got, exp) {
				t.Errorf("%v: undefined reads %v, want %v", k, got, exp)
			}
		}
	}
	if seen != len(want) {
		t.Errorf("checked %d pinned sets of %d", seen, len(want))
	}
}
