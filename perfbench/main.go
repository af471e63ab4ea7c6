// Command perfbench is the repository's benchmark. It runs one of four
// workloads against the real packages (and, for serve_predict, a real
// dvfsd child process over loopback HTTP), checks the outputs, and
// prints every metric by name and unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the run measures the workload untraced
// and then again with a span around every call the benchmark makes into
// a layer's public API; the per-layer metrics come from those spans,
// and the difference between the two phases is the tracing overhead.
// --workload all runs every workload in a child process per trace mode.
//
// Build and run it through run.sh, from the repository root:
//
//	bash perfbench/run.sh --workload sim_predict --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the golden output values were recorded at.
const defaultSeed = 1

// trainSeed trains the controllers of sim_predict and serve_predict
// and measures their switch tables. A deployment trains once and then
// meets many input streams, so --seed varies the job inputs while the
// models, whose slices set the decision cost, stay the same.
const trainSeed = 1

// buildDir holds everything the benchmark builds and writes.
const buildDir = ".bench_build"

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. What "work" and "op" are depends on the
// workload (see BENCHMARK.json and metrics.json):
//
//	sim_predict    work = simulated job, op = one JobStart decision
//	serve_predict  work = job answered 200 within 2.5 ms (closed loop),
//	               op = one open-loop request, timed from when it was due
//	fleet_replay   work = replayed event, op = one read+RunFleet pass
//	telemetry      work = simulated scrape second, op = one dashboard query
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
}

// selfLayers are the layers whose self-time share the traced run
// reports; "http" is the client side of loopback requests.
var selfLayers = []string{
	"core", "slicer", "taskir", "sim", "platform", "features", "serve",
	"http", "trace", "replay", "fleet", "obs", "tsdb", "alert",
}

// perLayer are the traced run's metrics. A metric of a layer the
// workload does not exercise reads 0; metrics.json maps each one to the
// end-to-end metric and workload it should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// sim_predict, untraced phase: the workload's own figures.
		{"sim.jobs_per_s", "1/s"},
		{"decide.ldecode.p50_us", "us"},
		{"decide.ldecode.p99_us", "us"},
		{"decide.pocketsphinx.p50_us", "us"},
		{"decide.pocketsphinx.p99_us", "us"},
		// sim_predict, traced phase.
		{"slicer.run_us.ldecode.p50", "us"},
		{"slicer.run_us.ldecode.p99", "us"},
		{"slicer.run_us.pocketsphinx.p50", "us"},
		{"slicer.run_us.pocketsphinx.p99", "us"},
		{"slicer.decide_frac", "frac"},
		{"taskir.run_us.ldecode.p50", "us"},
		{"taskir.run_us.pocketsphinx.p50", "us"},
		{"sim.other_frac", "frac"},
		{"core.predict_trace_ns.p50", "ns"},
		{"core.predict_trace_ns.p99", "ns"},
		{"core.build_s.ldecode", "s"},
		{"core.build_s.pocketsphinx", "s"},
		{"platform.switch_table_ms", "ms"},
		// serve_predict.
		{"serve.p50_ms", "ms"},
		{"serve.p99_ms", "ms"},
		{"serve.goodput_jobs_per_s", "1/s"},
		{"serve.batch_jobs_per_s", "1/s"},
		{"serve.handler_us.p50", "us"},
		{"serve.handler_us.p99", "us"},
		{"serve.decode_us.p50", "us"},
		{"features.wire_trace_us.p50", "us"},
		{"serve.registry_get_ns.p50", "ns"},
		{"serve.net_overhead_us.p50", "us"},
		{"serve.batch_handler_us_per_job", "us"},
		{"dvfsd.cpu_us_per_job", "us"},
		{"loadgen.lateness_ms.p99", "ms"},
		{"loadgen.cpu_us_per_job", "us"},
		// fleet_replay.
		{"replay.events_per_s", "1/s"},
		{"replay.w1_events_per_s", "1/s"},
		{"replay.speedup", "x"},
		{"trace.read_binary_ns_per_event", "ns"},
		{"trace.write_binary_ns_per_event", "ns"},
		{"fleet.run_devices_per_s", "1/s"},
		// telemetry.
		{"telemetry.ticks_per_s", "1/s"},
		{"query.p50_ms", "ms"},
		{"query.p99_ms", "ms"},
		{"tsdb.bytes_per_sample", "B"},
		{"obs.registry_scrape_us.p50", "us"},
		{"tsdb.tick_us.p50", "us"},
		{"tsdb.tick_us.p99", "us"},
		{"alert.eval_us.p50", "us"},
		{"alert.eval_us.p99", "us"},
		{"tsdb.query_us.15m.p50", "us"},
		{"tsdb.query_us.1h.p50", "us"},
		{"tsdb.query_us.6h.p50", "us"},
		{"tsdb.close_ms", "ms"},
		{"tsdb.series", "count"},
		{"tsdb.samples", "count"},
		{"alert.transitions", "count"},
		// Every workload.
		{"tracing.overhead_frac", "frac"},
		{"spans.count", "count"},
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self." + l + "_frac", "frac"})
	}
	return defs
}()

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"sim_predict":   runSim,
	"serve_predict": runServe,
	"fleet_replay":  runReplay,
	"telemetry":     runTelemetry,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"sim_predict", "serve_predict", "fleet_replay", "telemetry"}

// run is one invocation's state: settings, counts, checks and metrics.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	root     string // repository root (the working directory)
	workDir  string // scratch space, removed at exit
	outDir   string // spans and CPU profiles of traced runs

	setupSec  []float64
	attempted int64
	failed    int64
	checks    []checkResult
	e2e       map[string]float64
	layer     map[string]float64
	tr        *tracer // nil outside the traced phase

	steal0, total0 int64 // host CPU counters when the run started
}

type checkResult struct {
	name   string
	ok     bool
	detail string
}

// check records one output check.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, checkResult{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// phaseBudget is the measuring time of one phase: the whole run when
// untraced, half of it for each of the two phases of a traced run.
func (r *run) phaseBudget() time.Duration {
	if r.traced {
		return r.seconds / 2
	}
	return r.seconds
}

// timeSetup runs setup n times, records each duration for setup_s and
// returns the last setup's state.
func timeSetup[T any](r *run, n int, setup func() (T, error)) (T, error) {
	var v T
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, err
		}
		r.setupSec = append(r.setupSec, time.Since(t0).Seconds())
	}
	return v, nil
}

// startTrace switches the run into its traced phase and starts the CPU
// profile; the returned function stops the profile.
func (r *run) startTrace() (stop func(), err error) {
	r.tr = newTracer()
	f, err := os.Create(filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", r.workload, r.seed)))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	wl := flag.String("workload", "all", "sim_predict, serve_predict, fleet_replay, telemetry, or all")
	seed := flag.Int64("seed", defaultSeed, "workload seed (golden outputs are checked at the default)")
	seconds := flag.Int("seconds", 20, "measuring time of one run, in seconds")
	traceFlag := flag.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "dvfsd")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	if *wl == "all" {
		return runAll(*seed, *seconds)
	}
	drive, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s, all)\n", *wl, strings.Join(workloadOrder, ", "))
		return 2
	}
	r := &run{
		workload: *wl,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		root:     root,
		outDir:   filepath.Join(root, buildDir, "trace"),
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.workDir, err = os.MkdirTemp(filepath.Join(root, buildDir), "work-"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(r.workDir)

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", r.workload, r.seed, *seconds, *traceFlag)
	fmt.Println("env:", envRecord(root))
	r.steal0, r.total0 = hostCPU()
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	return r.report()
}

// report prints the checks and metrics and the closing JSON line. It
// returns the exit code: 1 when a check failed.
func (r *run) report() int {
	if len(r.setupSec) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: workload recorded no set-up")
		return 1
	}
	r.e2e["setup_s"] = median(r.setupSec)
	if r.tr != nil {
		root := r.tr.rootTime()
		self := r.tr.selfTimes()
		for _, l := range selfLayers {
			if root > 0 {
				r.layer["self."+l+"_frac"] = float64(self[l]) / float64(root)
			}
		}
		r.layer["spans.count"] = float64(len(r.tr.spans))
		path := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d.spans.json", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("trace: %d spans in %s, CPU profile beside it\n", len(r.tr.spans), path)
		fmt.Println("layer self time (traced phase):")
		for _, row := range r.tr.layerTable() {
			fmt.Printf("  %-10s %10.3f ms  %6.2f%%\n", row.Layer, float64(row.Self)/1e6, 100*row.Share)
		}
	}

	correct := true
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Printf("check %s %s: %s\n", status, c.name, c.detail)
	}
	if len(r.checks) == 0 {
		correct = false
		fmt.Println("check FAIL: workload ran no output check")
	}
	fmt.Printf("operations: attempted %d, failed %d\n", r.attempted, r.failed)
	// Other tenants of a shared host move wall-clock numbers; the share
	// of CPU time the hypervisor stole during the run records how much.
	if steal, total := hostCPU(); total > r.total0 {
		fmt.Printf("host: %.1f%% of CPU time stolen during the run\n", 100*float64(steal-r.steal0)/float64(total-r.total0))
	}

	defs, vals := endToEnd, r.e2e
	if r.traced {
		defs, vals = perLayer, r.layer
		fmt.Println("end-to-end (untraced phase):")
		for _, d := range endToEnd {
			if v, ok := r.e2e[d.Name]; ok {
				fmt.Printf("  %-34s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
		fmt.Println("per-layer:")
	} else {
		fmt.Println("end-to-end:")
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		// A per-layer metric of a layer this workload does not exercise
		// reads 0; every end-to-end metric must have been measured.
		v, ok := vals[d.Name]
		if !ok && !r.traced {
			fmt.Fprintf(os.Stderr, "perfbench: %s produced no %s\n", r.workload, d.Name)
			return 1
		}
		fmt.Printf("  %-34s %14.6g %s\n", d.Name, v, d.Unit)
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	if r.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{correct, r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// envRecord describes where and how the run happened.
func envRecord(root string) string {
	commit := "none"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return fmt.Sprintf("go=%s goos=%s goarch=%s gomaxprocs=%d nproc=%d commit=%s tree=%s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		commit, treeDigest(root))
}

// treeDigest fingerprints the Go sources under root, so a run outside
// a git checkout still names the code it measured.
func treeDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runAll runs every workload, untraced then traced, each in its own
// child process (so peak RSS is per workload), and closes with one JSON
// line whose metric names are prefixed by the workload.
func runAll(seed int64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	type result struct {
		Correct   bool                       `json:"correct"`
		Attempted int64                      `json:"attempted"`
		Failed    int64                      `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	all := result{Correct: true, Metrics: map[string]json.RawMessage{}}
	code := 0
	for _, wl := range workloadOrder {
		for _, tr := range []string{"0", "1"} {
			cmd := exec.Command(self, "--workload", wl, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", tr)
			cmd.Stderr = os.Stderr
			out, err := cmd.StdoutPipe()
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			if err := cmd.Start(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			var last string
			sc := bufio.NewScanner(out)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				last = sc.Text()
				fmt.Println(last)
			}
			if err := cmd.Wait(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s --trace %s: %v\n", wl, tr, err)
				code = 1
			}
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				all.Correct = false
				continue
			}
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for k, v := range res.Metrics {
				all.Metrics[wl+"/"+k] = v
			}
			fmt.Println()
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !all.Correct {
		code = 1
	}
	return code
}

// setOps reports op_p50_ms, the median over groups (passes) of each
// group's median op latency in ms; the median of medians keeps a burst
// of interference from the rest of the host confined to its pass. Too
// few samples in a group fail an untraced run; a traced run, whose
// untraced phase is half as long and does not report it, only skips it.
func (r *run) setOps(groups []dist) error {
	p50s := make([]float64, len(groups))
	for i, d := range groups {
		var ok bool
		if p50s[i], ok = d.pct(0.50); !ok {
			if r.traced {
				return nil
			}
			return fmt.Errorf("only %d ops in a pass: too few for a median with ten beyond it", d.n())
		}
	}
	r.e2e["op_p50_ms"] = median(p50s)
	return nil
}
