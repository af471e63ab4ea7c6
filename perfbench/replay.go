package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// The fleet has the shape of the Makefile's fleet-bench — platforms a7
// and x86, workload mix sha:3,rijndael:1 — at a size where one
// read+replay pass takes well under a tenth of a second at the seed
// commit, so a run holds the hundred passes its p90 needs; the devices
// share four (platform, workload) groups, which is what makes the
// per-device switch-table measurement redundant.
const (
	replayDevices = 10
	replayJobs    = 20
)

// replayGolden is the SHA-256 of the text report at defaultSeed.
const replayGolden = "42c82cdb9a57e380b5371fe5a49a3644bdb62724a494ab1620f3719c54cb01bd"

type replaySetup struct {
	path          string
	events        int
	fleetSec      float64
	writeNsPerEvt float64
}

// newReplaySetup simulates the fleet and writes its decision trace in
// the binary format, as dvfsfleet -out does.
func newReplaySetup(r *run) (*replaySetup, error) {
	mix, err := fleet.ParseMix("sha:3,rijndael:1")
	if err != nil {
		return nil, err
	}
	sink := &obs.MemorySink{}
	t0 := time.Now()
	if _, err := fleet.Run(fleet.Config{
		Devices:   replayDevices,
		Platforms: []string{"a7", "x86"},
		Mix:       mix,
		Jobs:      replayJobs,
		Seed:      r.seed,
		Sink:      sink,
	}); err != nil {
		return nil, err
	}
	s := &replaySetup{fleetSec: time.Since(t0).Seconds(), path: filepath.Join(r.workDir, "fleet.bin")}
	events := sink.Events()
	s.events = len(events)
	f, err := os.Create(s.path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	t0 = time.Now()
	err = trace.WriteBinary(bw, events)
	if err == nil {
		err = bw.Flush()
	}
	s.writeNsPerEvt = float64(time.Since(t0).Nanoseconds()) / float64(len(events))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("writing fleet trace: %w", err)
	}
	return s, nil
}

// replayPass reads the trace and replays it with the given worker
// count, returning the text report and the pass's wall time.
func replayPass(r *run, s *replaySetup, workers int) ([]byte, time.Duration, error) {
	tag := fmt.Sprintf("w%d", workers)
	t0 := time.Now()
	id := r.tr.begin("trace.read_binary", tag)
	f, err := os.Open(s.path)
	if err != nil {
		return nil, 0, err
	}
	events, err := trace.ReadBinary(bufio.NewReader(f))
	f.Close()
	r.tr.end(id)
	r.attempted += int64(len(events))
	if err != nil {
		r.failed += int64(s.events)
		return nil, 0, fmt.Errorf("reading fleet trace: %w", err)
	}
	id = r.tr.begin("replay.run_fleet", tag)
	res, err := replay.RunFleet(events, replay.FleetOptions{
		Plat:    platform.ODROIDXU3A7(),
		Seed:    r.seed,
		Workers: workers,
	})
	r.tr.end(id)
	wall := time.Since(t0)
	if err != nil {
		r.failed += int64(len(events))
		return nil, 0, fmt.Errorf("replaying fleet: %w", err)
	}
	r.failed += int64(res.Skipped)
	var report bytes.Buffer
	res.WriteText(&report)
	return report.Bytes(), wall, nil
}

// replayRun is what a phase of passes measured.
type replayRun struct {
	walls  []time.Duration
	rss    []float64 // peak RSS of each pass, MiB
	report []byte    // the report every pass must produce
	differ int       // passes that produced another
}

// replayPhase runs passes for budget (at least one). Every pass must
// produce want, or the first pass's report when want is nil.
func replayPhase(r *run, s *replaySetup, workers int, budget time.Duration, want []byte) (*replayRun, error) {
	rr := &replayRun{report: want}
	var spent time.Duration
	for len(rr.walls) == 0 || spent < budget {
		resetPeakRSS()
		report, wall, err := replayPass(r, s, workers)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMiB(0)
		if err != nil {
			return nil, err
		}
		if rr.report == nil {
			rr.report = report
		} else if !bytes.Equal(report, rr.report) {
			rr.differ++
		}
		rr.walls = append(rr.walls, wall)
		rr.rss = append(rr.rss, rss)
		spent += wall
	}
	return rr, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func runReplay(r *run) error {
	s, err := timeSetup(r, 5, func() (*replaySetup, error) { return newReplaySetup(r) })
	if err != nil {
		r.failed++
		return err
	}
	r.attempted += 5
	nproc := runtime.NumCPU()
	rr, err := replayPhase(r, s, nproc, r.phaseBudget(), nil)
	if err != nil {
		return err
	}
	rates := make([]float64, len(rr.walls))
	for i, w := range rr.walls {
		rates[i] = float64(s.events) / w.Seconds()
	}
	// Each op is a whole pass, so the passes form one group.
	if err := r.setOps([]dist{durDist(rr.walls, time.Millisecond)}); err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = median(rr.rss)
	r.e2e["work_per_s"] = median(rates)
	fmt.Printf("replay: %d devices, %d events, %d passes at %d workers\n", replayDevices, s.events, len(rr.walls), nproc)

	w1Report, _, err := replayPass(r, s, 1)
	if err != nil {
		return err
	}
	r.check("replay.workers_identical", bytes.Equal(rr.report, w1Report),
		"report at 1 worker %s, at %d workers %s", digest(w1Report)[:16], nproc, digest(rr.report)[:16])
	if r.seed == defaultSeed {
		r.check("replay.golden", digest(rr.report) == replayGolden, "report sha256 %s (golden %s)", digest(rr.report), replayGolden)
	}
	r.check("replay.repeatable", rr.differ == 0, "%d of %d passes produced another report", rr.differ, len(rr.walls))

	if !r.traced {
		return nil
	}
	r.layer["replay.events_per_s"] = r.e2e["work_per_s"]
	r.layer["fleet.run_devices_per_s"] = replayDevices / s.fleetSec
	r.layer["trace.write_binary_ns_per_event"] = s.writeNsPerEvt

	stop, err := r.startTrace()
	if err != nil {
		return err
	}
	defer stop()
	id := r.tr.begin("platform.measure_switch_table", "a7")
	platform.MeasureSwitchTable(platform.ODROIDXU3A7(), 500, 0.95, r.seed+97)
	r.tr.end(id)
	r.layer["platform.switch_table_ms"] = float64(r.tr.total("platform.measure_switch_table", "*")) / 1e6

	wn, err := replayPhase(r, s, nproc, r.phaseBudget()/2, rr.report)
	if err != nil {
		return err
	}
	w1, err := replayPhase(r, s, 1, r.phaseBudget()/2, rr.report)
	if err != nil {
		return err
	}
	r.check("replay.traced_identical", wn.differ+w1.differ == 0, "%d of %d traced passes produced another report",
		wn.differ+w1.differ, len(wn.walls)+len(w1.walls))
	runN := median(durSeconds(r.tr.durations("replay.run_fleet", fmt.Sprintf("w%d", nproc))))
	run1 := median(durSeconds(r.tr.durations("replay.run_fleet", "w1")))
	r.layer["replay.w1_events_per_s"] = float64(s.events) / run1
	r.layer["replay.speedup"] = run1 / runN
	reads := r.tr.durations("trace.read_binary", "*")
	r.layer["trace.read_binary_ns_per_event"] = median(durSeconds(reads)) * 1e9 / float64(s.events)
	r.layer["tracing.overhead_frac"] = median(durSeconds(wn.walls))/median(durSeconds(rr.walls)) - 1
	fmt.Printf("replay traced: %d passes at %d workers, %d at 1\n", len(wn.walls), nproc, len(w1.walls))
	return nil
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
