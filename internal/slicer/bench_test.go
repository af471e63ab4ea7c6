package slicer

import (
	"testing"

	"repro/internal/features"
	"repro/internal/instrument"
	"repro/internal/taskir"
	"repro/internal/workload"
)

// BenchmarkCompiledRun times the compiled engine on the two workloads
// whose prediction slices bracket the decision cost: ldecode's short
// slice and pocketsphinx's nested-loop one. "slice" is Slice.Run
// recording into a reused trace, the decision path's evaluation;
// "full" is an unfrozen run of the job's own program, what the
// simulator executes per job. Each iteration cycles through the same 64
// generated jobs.
func BenchmarkCompiledRun(b *testing.B) {
	for _, name := range []string{"ldecode", "pocketsphinx"} {
		w, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		gen := w.NewGen(3)
		jobs := make([]map[string]int64, 64)
		for i := range jobs {
			jobs[i] = gen.Next(i)
		}
		b.Run(name+"/slice", func(b *testing.B) {
			sl := Extract(instrument.Instrument(w.Prog), nil)
			globals := w.FreshGlobals()
			tr := features.NewTrace()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr.Reset()
				if _, err := sl.Run(globals, jobs[i%len(jobs)], tr); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/full", func(b *testing.B) {
			code := taskir.Compile(w.Prog)
			globals := w.FreshGlobals()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := code.Run(globals, jobs[i%len(jobs)], taskir.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
