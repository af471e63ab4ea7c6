package taskir_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/instrument"
	"repro/internal/taskir"
)

// featureEvent is one recorder call, kept in the order it happened.
type featureEvent struct {
	call bool
	fid  int
	v    int64
}

type logRecorder struct{ events []featureEvent }

func (r *logRecorder) AddFeature(fid int, amount int64) {
	r.events = append(r.events, featureEvent{fid: fid, v: amount})
}

func (r *logRecorder) RecordCall(fid int, addr int64) {
	r.events = append(r.events, featureEvent{call: true, fid: fid, v: addr})
}

// diffStats counts what the differential runs exercised, so the test
// can prove its inputs reach every behaviour it claims to compare.
type diffStats struct {
	stepLimit, whileLimit, undefRead, runs int
}

// diffProgram is the instrumented RandomProgram of seed. With tight
// set, every while loop is capped at two iterations.
func diffProgram(seed int64, tight bool) *taskir.Program {
	p := instrument.Instrument(taskir.RandomProgram(rand.New(rand.NewSource(seed)))).Prog
	if tight {
		var walk func([]taskir.Stmt)
		walk = func(stmts []taskir.Stmt) {
			for _, s := range stmts {
				switch st := s.(type) {
				case *taskir.If:
					walk(st.Then)
					walk(st.Else)
				case *taskir.While:
					st.MaxIter = 2
					walk(st.Body)
				case *taskir.Loop:
					walk(st.Body)
				case *taskir.Call:
					for _, b := range st.Funcs {
						walk(b)
					}
				}
			}
		}
		walk(p.Body)
	}
	return p
}

func cloneGlobals(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return errors.Is(a, taskir.ErrStepLimit) == errors.Is(b, taskir.ErrStepLimit) && a.Error() == b.Error()
}

func sameWork(a, b taskir.Work) bool {
	return math.Float64bits(a.CPU) == math.Float64bits(b.CPU) &&
		math.Float64bits(a.MemSec) == math.Float64bits(b.MemSec) && a.Stmts == b.Stmts
}

// checkSeed runs several jobs of seed's program through the reference
// interpreter, through taskir.Run over an Env, and (when locals are
// reset every job, which is what the map API does) through
// Compiled.Run/RunFrozen, frozen and unfrozen, and requires identical
// work, feature events, errors, globals, locals and undefined reads.
func checkSeed(t *testing.T, seed int64, st *diffStats) {
	t.Helper()
	for _, tight := range []bool{false, true} {
		p := diffProgram(seed, tight)
		code := taskir.Compile(p)
		for _, frozen := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed*31 + 7))
			// Some sequences keep locals across jobs (no ResetLocals),
			// which only the Env API can express.
			carry := seed%4 == 0
			gRef, gEnv, gMap := cloneGlobals(p.Globals), cloneGlobals(p.Globals), cloneGlobals(p.Globals)
			ref, env := taskir.NewEnv(gRef), taskir.NewEnv(gEnv)
			ref.TrackReads()
			env.TrackReads()
			if frozen {
				ref.Freeze()
				env.Freeze()
			}
			for job := 0; job < 4; job++ {
				where := fmt.Sprintf("seed %d tight=%v frozen=%v job %d", seed, tight, frozen, job)
				params := map[string]int64{}
				for _, name := range []string{"p0", "p1", "p2"} {
					// A withheld param makes its reads undefined.
					if rng.Intn(8) != 0 {
						params[name] = rng.Int63n(41) - 10
					}
				}
				if rng.Intn(4) == 0 {
					// A param named like a global shadows it.
					params["g0"] = rng.Int63n(9)
				}
				opts := taskir.RunOptions{}
				if tight {
					opts.MaxSteps = 1 + rng.Int63n(120)
				}
				if !carry {
					ref.ResetLocals()
					env.ResetLocals()
				}
				ref.SetParams(params)
				env.SetParams(params)

				recRef, recEnv := &logRecorder{}, &logRecorder{}
				opts.Recorder = recRef
				wRef, errRef := taskir.RefRun(p, ref, opts)
				opts.Recorder = recEnv
				wEnv, errEnv := taskir.Run(p, env, opts)
				st.runs++
				switch {
				case errors.Is(errRef, taskir.ErrStepLimit):
					st.stepLimit++
				case errRef != nil && strings.Contains(errRef.Error(), "exceeded"):
					st.whileLimit++
				}
				if !sameErr(errRef, errEnv) {
					t.Fatalf("%s: Run error %v, reference %v", where, errEnv, errRef)
				}
				if !sameWork(wRef, wEnv) {
					t.Fatalf("%s: Run work %+v, reference %+v", where, wEnv, wRef)
				}
				if !reflect.DeepEqual(recRef.events, recEnv.events) {
					t.Fatalf("%s: Run features %v, reference %v", where, recEnv.events, recRef.events)
				}
				if !reflect.DeepEqual(gRef, gEnv) || ref.String() != env.String() {
					t.Fatalf("%s: Run env %s, reference %s", where, env, ref)
				}
				if !reflect.DeepEqual(ref.UndefinedReads(), env.UndefinedReads()) {
					t.Fatalf("%s: undefined reads %v, reference %v", where, env.UndefinedReads(), ref.UndefinedReads())
				}
				if carry {
					continue
				}

				recMap := &logRecorder{}
				opts.Recorder = recMap
				run := code.Run
				if frozen {
					run = code.RunFrozen
				}
				wMap, errMap := run(gMap, params, opts)
				if !sameErr(errRef, errMap) {
					t.Fatalf("%s: compiled error %v, reference %v", where, errMap, errRef)
				}
				if !sameWork(wRef, wMap) {
					t.Fatalf("%s: compiled work %+v, reference %+v", where, wMap, wRef)
				}
				if !reflect.DeepEqual(recRef.events, recMap.events) {
					t.Fatalf("%s: compiled features %v, reference %v", where, recMap.events, recRef.events)
				}
				if !reflect.DeepEqual(gRef, gMap) {
					t.Fatalf("%s: compiled globals %v, reference %v", where, gMap, gRef)
				}
			}
			if len(ref.UndefinedReads()) > 0 {
				st.undefRead++
			}
			if frozen && !reflect.DeepEqual(gRef, p.Globals) {
				t.Fatalf("seed %d: frozen reference run changed globals", seed)
			}
		}
	}
}

// TestCompiledMatchesReference holds the compiled engine to the
// tree-walking reference interpreter on random instrumented programs.
func TestCompiledMatchesReference(t *testing.T) {
	var st diffStats
	for seed := int64(0); seed < 2000; seed++ {
		checkSeed(t, seed, &st)
	}
	t.Logf("%d runs: %d step-limit errors, %d while-limit errors, %d sequences with undefined reads",
		st.runs, st.stepLimit, st.whileLimit, st.undefRead)
	if st.stepLimit == 0 || st.whileLimit == 0 || st.undefRead == 0 {
		t.Fatalf("inputs did not exercise every compared behaviour: %+v", st)
	}
}

func FuzzCompiledMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSeed(t, seed, &diffStats{})
	})
}
