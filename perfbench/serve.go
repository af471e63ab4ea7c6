package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/workload"
)

const (
	// serveRate is the open-loop request rate: a quarter of the
	// closed-loop single-request goodput measured at the seed commit
	// (about 10000/s). At half of it, a shared host that steals a fifth
	// of the CPU pushes the open loop past capacity and its latency
	// grows without bound; at a quarter it stays below capacity.
	serveRate = 2500.0
	// serveLimit is the goodput latency limit: 5% of ldecode's 50 ms
	// budget, the share a remote decision may take of a frame.
	serveLimit = 2500 * time.Microsecond
	// servePool is the number of jobs per model in the request pool.
	servePool = 128
	// serveBatch is the batch request size.
	serveBatch = 32
	// serveWindows is how many windows a load phase is split into for
	// its median.
	serveWindows = 8
)

// serveModels are trained in the daemon and interleaved in the pool.
var serveModels = []string{"ldecode", "pocketsphinx"}

// serveReq is one prepared request: the body the daemon receives and
// the level the in-process controller picks for each of its jobs.
type serveReq struct {
	model string
	body  []byte
	want  []int
}

type serveSetup struct {
	d        *daemon
	base     string
	single   []serveReq // models interleaved
	batch    []serveReq // serveBatch jobs of one model each, models interleaved
	ctl      map[string]*core.Controller
	plat     *platform.Platform
	switchMs float64
	buildSec map[string]float64
}

// daemon is a dvfsd child process.
type daemon struct {
	cmd     *exec.Cmd
	drained chan struct{} // closed once the daemon's output pipe is at EOF
}

var listenRE = regexp.MustCompile(`msg="dvfsd listening" addr=(\S+)`)

// startDaemon starts dvfsd on a free loopback port and waits until it
// answers /healthz. The daemon's log (one access-log line per request)
// goes to a pipe the benchmark drains, as it would to a log collector,
// rather than to a file whose write-back would add disk stalls.
func startDaemon(r *run, seed int64) (*daemon, string, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(filepath.Join(r.root, buildDir, "bin", "dvfsd"), "-addr", "127.0.0.1:0", "-seed", fmt.Sprint(seed))
	cmd.Stdout = pw
	cmd.Stderr = pw
	// The daemon must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, "", fmt.Errorf("starting dvfsd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
				break
			}
		}
		_, _ = io.Copy(io.Discard, pr)
	}()
	select {
	case a := <-addr:
		base := "http://" + a
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := serve.WaitHealthy(ctx, base); err != nil {
			d.stop()
			return nil, "", err
		}
		return d, base, nil
	case <-d.drained:
		d.stop()
		return nil, "", fmt.Errorf("dvfsd exited before reporting its address")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, "", fmt.Errorf("dvfsd did not report its address within 30 s")
	}
}

// stop shuts the daemon down with SIGTERM (SIGKILL after 10 s) and
// waits for it to exit and its output to drain.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	<-d.drained
}

// newServeSetup starts and trains the daemon, generates the request
// pool, and trains the same models in process to know each job's
// level.
func newServeSetup(r *run) (s *serveSetup, err error) {
	s = &serveSetup{ctl: map[string]*core.Controller{}, buildSec: map[string]float64{}, plat: platform.ODROIDXU3A7()}
	if s.d, s.base, err = startDaemon(r, trainSeed); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.d.stop()
		}
	}()
	ctx := context.Background()
	for _, m := range serveModels {
		st, err := serve.TrainRemote(ctx, s.base, m, serve.TrainConfig{Seed: trainSeed})
		if err != nil {
			return nil, err
		}
		if st.State != serve.StateReady {
			return nil, fmt.Errorf("model %s is %s: %s", m, st.State, st.Error)
		}
	}
	// The daemon's registry measures its switch table with seed+97 and
	// trains with ProfileSeed = the train request's seed.
	t0 := time.Now()
	sw := platform.MeasureSwitchTable(s.plat, 500, 0.95, trainSeed+97)
	s.switchMs = float64(time.Since(t0)) / 1e6
	pools := map[string][]serve.PredictJob{}
	for _, m := range serveModels {
		w, err := workload.ByName(m)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if s.ctl[m], err = core.Build(w, core.Config{Plat: s.plat, Switch: sw, ProfileSeed: trainSeed}); err != nil {
			return nil, err
		}
		s.buildSec[m] = time.Since(t0).Seconds()
		if pools[m], err = serve.GenerateJobs(m, servePool, r.seed); err != nil {
			return nil, err
		}
	}
	for i := 0; i < servePool; i++ {
		for _, m := range serveModels {
			job := pools[m][i]
			want, err := s.level(m, job)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(serve.PredictRequest{Model: m, PredictJob: job})
			if err != nil {
				return nil, err
			}
			s.single = append(s.single, serveReq{model: m, body: body, want: []int{want}})
		}
	}
	for i := 0; i < servePool; i += serveBatch {
		for _, m := range serveModels {
			jobs := pools[m][i : i+serveBatch]
			req := serveReq{model: m}
			for _, job := range jobs {
				want, err := s.level(m, job)
				if err != nil {
					return nil, err
				}
				req.want = append(req.want, want)
			}
			if req.body, err = json.Marshal(serve.BatchRequest{Model: m, Jobs: jobs}); err != nil {
				return nil, err
			}
			s.batch = append(s.batch, req)
		}
	}
	return s, nil
}

// level is the decision core.Controller.PredictTrace makes in process
// for a pool job, with the defaults the daemon applies to an empty
// budget and level.
func (s *serveSetup) level(model string, job serve.PredictJob) (int, error) {
	ctl := s.ctl[model]
	tr, err := job.Features.Trace()
	if err != nil {
		return 0, err
	}
	return ctl.PredictTrace(tr, job.Params, ctl.W.DefaultBudgetSec, 0, ctl.Plat.MaxLevel()).Target.Index, nil
}

// serveClient posts prepared requests and checks the answers.
type serveClient struct {
	base     string
	hc       *http.Client
	mismatch atomic.Int64 // responses whose level differs from the in-process one
}

func newServeClient(base string, conns int) *serveClient {
	return &serveClient{
		base: base,
		hc: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
			},
		},
	}
}

// post sends req and reports whether it returned 200 with the expected
// levels. A wrong level is an output error, counted apart from
// transport and status failures.
func (c *serveClient) post(path string, req *serveReq) bool {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var levels []int
	if path == "/v1/predict" {
		var pr serve.PredictResponse
		if json.Unmarshal(data, &pr) != nil {
			return false
		}
		levels = []int{pr.Level}
	} else {
		var br serve.BatchResponse
		if json.Unmarshal(data, &br) != nil {
			return false
		}
		for _, res := range br.Results {
			levels = append(levels, res.Level)
		}
	}
	if !slices.Equal(levels, req.want) {
		c.mismatch.Add(1)
	}
	return true
}

// servePhases is what the three load phases measured.
type servePhases struct {
	open, single, batch loadResult
	daemonCPU, selfCPU  time.Duration // over the single-request phase
}

// runServePhases drives the open loop, the closed single-request loop
// and the closed batch loop, each for a third of budget.
func runServePhases(r *run, s *serveSetup, c *serveClient, budget time.Duration) (*servePhases, error) {
	conns := runtime.NumCPU()
	third := budget / 3
	var ph servePhases
	pid := s.d.cmd.Process.Pid
	single := func(_, i int) bool {
		return c.post("/v1/predict", &s.single[i%len(s.single)])
	}
	ph.open = openLoop(serveRate, third, conns, single)
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	ph.single = closedLoop(third, conns, single)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	ph.daemonCPU, ph.selfCPU = cpu1-cpu0, selfCPU()-self0
	ph.batch = closedLoop(third, conns, func(w, i int) bool {
		return c.post("/v1/predict/batch", &s.batch[i%len(s.batch)])
	})
	for _, lr := range []loadResult{ph.open, ph.single, ph.batch} {
		r.attempted += int64(len(lr.samples))
		r.failed += int64(lr.failed())
	}
	return &ph, nil
}

func runServe(r *run) error {
	var last *serveSetup
	s, err := timeSetup(r, 3, func() (*serveSetup, error) {
		if last != nil {
			last.d.stop()
		}
		s, err := newServeSetup(r)
		last = s
		return s, err
	})
	if err != nil {
		r.failed++
		return err
	}
	defer s.d.stop()
	r.attempted += 3

	conns := runtime.NumCPU()
	c := newServeClient(s.base, conns)
	ph, err := runServePhases(r, s, c, r.phaseBudget())
	if err != nil {
		return err
	}
	// Both headline numbers are medians over windows of their phase; the
	// open-loop p99 needs the whole phase's samples.
	if n := len(ph.open.samples); n < 20*serveWindows {
		return fmt.Errorf("only %d open-loop requests: too few for a median with ten beyond it in each window", n)
	}
	p50 := ph.open.windowMedian(serveWindows, func(w *loadResult) float64 {
		v, _ := durDist(w.latencies(), time.Millisecond).pct(0.50)
		return v
	})
	p99, _ := durDist(ph.open.latencies(), time.Millisecond).pct(0.99)
	goodput := ph.single.windowMedian(serveWindows, func(w *loadResult) float64 {
		return float64(w.withinLimit(serveLimit)) / w.elapsed.Seconds()
	})
	r.e2e["op_p50_ms"] = p50
	rss, err := peakRSSMiB(s.d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = rss
	r.e2e["work_per_s"] = goodput
	batchOK := len(ph.batch.samples) - ph.batch.failed()
	batchRate := float64(batchOK*serveBatch) / ph.batch.elapsed.Seconds()
	late99, _ := durDist(ph.open.lateness, time.Millisecond).pct(0.99)
	dvfsdCPU := float64(ph.daemonCPU) / 1e3 / float64(len(ph.single.samples))
	clientCPU := float64(ph.selfCPU) / 1e3 / float64(len(ph.single.samples))
	fmt.Printf("serve: open loop %d requests at %.0f/s (lateness p99 %.3f ms), closed single %d requests (%.0f/s, %d within %v; CPU per job: dvfsd %.1f us, client %.1f us), batch %d requests (%.0f jobs/s)\n",
		len(ph.open.samples), serveRate, late99, len(ph.single.samples),
		float64(len(ph.single.samples))/ph.single.elapsed.Seconds(), ph.single.withinLimit(serveLimit), serveLimit,
		dvfsdCPU, clientCPU, len(ph.batch.samples), batchRate)
	answered := len(ph.open.samples) + len(ph.single.samples) + len(ph.batch.samples)
	r.check("serve.levels_match_in_process", c.mismatch.Load() == 0,
		"%d of %d answered requests carried a level other than core.Controller.PredictTrace's", c.mismatch.Load(), answered)

	if !r.traced {
		return nil
	}
	r.layer["serve.p50_ms"] = p50
	r.layer["serve.p99_ms"] = p99
	r.layer["serve.goodput_jobs_per_s"] = goodput
	r.layer["serve.batch_jobs_per_s"] = batchRate
	r.layer["loadgen.lateness_ms.p99"] = late99
	r.layer["dvfsd.cpu_us_per_job"] = dvfsdCPU
	r.layer["loadgen.cpu_us_per_job"] = clientCPU
	r.layer["platform.switch_table_ms"] = s.switchMs
	for _, m := range serveModels {
		r.layer["core.build_s."+m] = s.buildSec[m]
	}

	stop, err := r.startTrace()
	if err != nil {
		return err
	}
	defer stop()
	// Half the traced budget drives the daemon again with a client span
	// per single request; the other half calls the serving layers in
	// process.
	tracers := make([]*tracer, conns)
	for i := range tracers {
		tracers[i] = newTracer()
	}
	traced := closedLoop(r.phaseBudget()/2, conns, func(w, i int) bool {
		req := &s.single[i%len(s.single)]
		id := tracers[w].begin("http.predict", req.model)
		ok := c.post("/v1/predict", req)
		tracers[w].end(id)
		return ok
	})
	r.attempted += int64(len(traced.samples))
	r.failed += int64(traced.failed())
	for _, t := range tracers {
		r.tr.adopt(t)
	}
	tracedGoodput := traced.windowMedian(serveWindows, func(w *loadResult) float64 {
		return float64(w.withinLimit(serveLimit)) / w.elapsed.Seconds()
	})
	r.layer["tracing.overhead_frac"] = goodput/tracedGoodput - 1

	if err := serveInProcess(r, s, r.phaseBudget()/2); err != nil {
		return err
	}
	single := durDist(ph.single.latencies(), time.Microsecond)
	client50, _ := single.pct(0.50)
	r.layer["serve.net_overhead_us.p50"] = client50 - r.layer["serve.handler_us.p50"]
	r.check("serve.levels_match_in_process.traced", c.mismatch.Load() == 0,
		"%d mismatched levels after the traced phase", c.mismatch.Load())
	return nil
}

// serveInProcess times the serving layers without the network: the
// daemon's handler through httptest, and the calls it makes — JSON
// decode, wire-trace decode, registry lookup, prediction — each on its
// own.
func serveInProcess(r *run, s *serveSetup, budget time.Duration) error {
	reg, err := serve.NewRegistry(serve.RegistryOptions{Plat: s.plat, Seed: trainSeed})
	if err != nil {
		return err
	}
	defer reg.Close()
	for _, m := range serveModels {
		var buf bytes.Buffer
		if err := core.SaveController(&buf, s.ctl[m]); err != nil {
			return err
		}
		if _, err := reg.Upload(m, &buf); err != nil {
			return err
		}
	}
	srv := serve.NewServer(reg, serve.ServerOptions{})
	tr := r.tr
	mismatch := 0
	deadline := time.Now().Add(budget)
	for i := 0; time.Now().Before(deadline); i++ {
		req := &s.single[i%len(s.single)]
		r.attempted++
		rec := httptest.NewRecorder()
		id := tr.begin("serve.serve_http", req.model)
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(req.body)))
		tr.end(id)
		var pr serve.PredictResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &pr) != nil {
			r.failed++
			continue
		}
		if pr.Level != req.want[0] {
			mismatch++
		}

		var dec serve.PredictRequest
		id = tr.begin("serve.decode", req.model)
		err := json.Unmarshal(req.body, &dec)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("features.wire_trace", req.model)
		ft, err := dec.Features.Trace()
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("serve.registry_get", req.model)
		ctl, err := reg.Get(dec.Model)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("core.predict_trace", req.model)
		ctl.PredictTrace(ft, dec.Params, ctl.W.DefaultBudgetSec, 0, ctl.Plat.MaxLevel())
		tr.end(id)

		if i%serveBatch == 0 {
			b := &s.batch[(i/serveBatch)%len(s.batch)]
			r.attempted++
			rec := httptest.NewRecorder()
			id := tr.begin("serve.serve_http", "batch")
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict/batch", bytes.NewReader(b.body)))
			tr.end(id)
			if rec.Code != http.StatusOK {
				r.failed++
			}
		}
	}
	r.check("serve.in_process_levels_match", mismatch == 0, "%d in-process handler answers differ from PredictTrace", mismatch)
	var handler []time.Duration
	for _, m := range serveModels {
		handler = append(handler, tr.durations("serve.serve_http", m)...)
	}
	h := durDist(handler, time.Microsecond)
	r.layer["serve.handler_us.p50"], _ = h.pct(0.50)
	r.layer["serve.handler_us.p99"], _ = h.pct(0.99)
	r.layer["serve.decode_us.p50"], _ = durDist(tr.durations("serve.decode", "*"), time.Microsecond).pct(0.50)
	r.layer["features.wire_trace_us.p50"], _ = durDist(tr.durations("features.wire_trace", "*"), time.Microsecond).pct(0.50)
	r.layer["serve.registry_get_ns.p50"], _ = durDist(tr.durations("serve.registry_get", "*"), time.Nanosecond).pct(0.50)
	pt := durDist(tr.durations("core.predict_trace", "*"), time.Nanosecond)
	r.layer["core.predict_trace_ns.p50"], _ = pt.pct(0.50)
	r.layer["core.predict_trace_ns.p99"], _ = pt.pct(0.99)
	bh := durDist(tr.durations("serve.serve_http", "batch"), time.Microsecond)
	if med, ok := bh.pct(0.50); ok {
		r.layer["serve.batch_handler_us_per_job"] = med / serveBatch
	}
	return nil
}
