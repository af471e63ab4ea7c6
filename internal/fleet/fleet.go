// Package fleet simulates a heterogeneous device population — the
// evaluation harness the paper never had. The paper (§5) evaluates
// prediction-guided DVFS on one ODROID board; the questions a
// deployment actually asks are population-level: "what does a 5%
// margin cut cost in deadline misses across a million heterogeneous
// devices?". fleet answers them by driving N simulated devices (each
// with its own platform model, workload, phase offset, and seeded
// RNG) through a worker pool and aggregating per-device energy and
// miss distributions online with obs t-digest quantile sketches.
//
// Determinism is load-bearing: for a fixed Config the aggregate
// result and every emitted trace byte are identical regardless of
// worker count or scheduling. Workers finish devices out of order;
// a commit stage reassembles them in device-index order before any
// float is summed, any sketch updated, or any event emitted, so
// the accumulation order — and therefore every bit of the output —
// is fixed by the configuration alone. The cross-check in
// TestFleetMatchesPerDeviceSims (aggregate == sum of standalone
// dvfssim-equivalent runs) holds exactly, not approximately.
package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// MixEntry is one workload with an integer weight: a mix of
// "ldecode:3,sha:1" assigns 3 of every 4 devices ldecode.
type MixEntry struct {
	Workload string
	Weight   int
}

// ParseMix parses "w1:3,w2:1" (weight defaults to 1 when omitted, as
// in "ldecode,sha"). Workload names are validated against the
// registry.
func ParseMix(s string) ([]MixEntry, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("fleet: empty workload mix")
	}
	var mix []MixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		if _, err := workload.ByName(name); err != nil {
			return nil, fmt.Errorf("fleet: mix entry %q: %w", part, err)
		}
		weight := 1
		if hasWeight {
			var err error
			weight, err = strconv.Atoi(strings.TrimSpace(weightStr))
			if err != nil || weight < 1 {
				return nil, fmt.Errorf("fleet: mix entry %q: weight must be a positive integer", part)
			}
		}
		mix = append(mix, MixEntry{Workload: name, Weight: weight})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("fleet: empty workload mix")
	}
	return mix, nil
}

// Config describes a fleet run. Everything downstream — device specs,
// seeds, phase offsets, trace bytes — is a pure function of it.
type Config struct {
	// Devices is the fleet size.
	Devices int
	// Platforms are the platform models devices cycle through
	// (platform.ByName names). Empty selects the A7 board alone.
	Platforms []string
	// Mix assigns workloads to devices by weight. Empty selects sha.
	Mix []MixEntry
	// Governor names the per-device governor (core.GovernorNames);
	// empty selects "prediction".
	Governor string
	// Jobs is the per-device job count; zero selects 20 (enough for
	// level churn, small enough for 100k-device CI smoke runs).
	Jobs int
	// BudgetSec is the per-job deadline budget; zero selects each
	// workload's paper default.
	BudgetSec float64
	// Seed drives everything: controller training, switch-table
	// measurement, per-device seeds and phase offsets.
	Seed int64
	// Workers bounds simulation concurrency; zero selects
	// runtime.GOMAXPROCS.
	Workers int
	// Sink, when non-nil, receives every device's merged decision
	// events in device order with globally reassigned sequence
	// numbers. Nil skips event materialization entirely — the
	// aggregate-only fast path the 100k-device bench uses.
	Sink obs.Sink
	// Progress, when non-nil, is called from the commit stage as
	// devices complete (monotonic done counts, in order).
	Progress func(done, total int)
}

func (c Config) withDefaults() Config {
	if len(c.Platforms) == 0 {
		c.Platforms = []string{"a7"}
	}
	if len(c.Mix) == 0 {
		c.Mix = []MixEntry{{Workload: "sha", Weight: 1}}
	}
	if c.Governor == "" {
		c.Governor = "prediction"
	}
	if c.Jobs == 0 {
		c.Jobs = 20
	}
	return c
}

// DeviceSpec pins down one simulated device. Specs are derived
// deterministically from (Config, index) — see Spec.
type DeviceSpec struct {
	// Index is the device's position in the fleet, ID its stable name
	// ("dev-0000042").
	Index int
	ID    string
	// Platform and Workload name the device's hardware model and job
	// stream.
	Platform string
	Workload string
	// Seed is the device-private RNG seed; SimConfig passes Seed+7 to
	// the simulator, matching the dvfssim CLI convention so a fleet
	// device can be reproduced standalone.
	Seed int64
	// JobOffset is the device's phase offset into the workload input
	// stream (sim.Config.JobOffset): devices sharing a workload do
	// not execute identical input sequences in lockstep.
	JobOffset int
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed hash
// from (base seed, device index) to a device seed.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Spec derives device i's spec from the config: platform and workload
// cycle deterministically (platforms round-robin, workloads by mix
// weight), seed and phase offset come from a SplitMix64 hash of
// (Config.Seed, i).
func (c Config) Spec(i int) DeviceSpec {
	c = c.withDefaults()
	slots := 0
	for _, m := range c.Mix {
		slots += m.Weight
	}
	slot := i % slots
	wl := c.Mix[len(c.Mix)-1].Workload
	for _, m := range c.Mix {
		if slot < m.Weight {
			wl = m.Workload
			break
		}
		slot -= m.Weight
	}
	h := splitmix64(uint64(c.Seed) ^ splitmix64(uint64(i)+1))
	return DeviceSpec{
		Index:     i,
		ID:        fmt.Sprintf("dev-%07d", i),
		Platform:  c.Platforms[i%len(c.Platforms)],
		Workload:  wl,
		Seed:      int64(h & 0x7fffffffffffffff),
		JobOffset: int((h >> 17) % 1024),
	}
}

// SimConfig is the exact simulator configuration device spec runs
// under — exported so the determinism cross-check (and anyone
// reproducing one fleet device standalone) can run sim.Run with
// byte-identical inputs.
func (c Config) SimConfig(spec DeviceSpec, plat *platform.Platform) sim.Config {
	c = c.withDefaults()
	return sim.Config{
		Plat:      plat,
		BudgetSec: c.BudgetSec,
		Jobs:      c.Jobs,
		Seed:      spec.Seed + 7,
		JobOffset: spec.JobOffset,
	}
}

// DeviceResult is one device's outcome.
type DeviceResult struct {
	Spec    DeviceSpec
	EnergyJ float64
	Jobs    int
	Misses  int
}

// MissRate is the device's deadline-miss fraction.
func (d *DeviceResult) MissRate() float64 { return missRate(d.Misses, d.Jobs) }

// GroupAgg aggregates a slice of the fleet (one platform, or one
// workload).
type GroupAgg struct {
	Name    string
	Devices int
	Jobs    int
	Misses  int
	EnergyJ float64
}

// MissRate is the group's deadline-miss fraction.
func (g *GroupAgg) MissRate() float64 { return missRate(g.Misses, g.Jobs) }

// Quantiles summarizes a per-device distribution.
type Quantiles struct {
	P50, P90, P95, P99 float64
}

// Result is the fleet-level aggregate.
type Result struct {
	// Devices/Jobs/Misses/EnergyJ are fleet totals, folded in device
	// order (bit-stable float sums).
	Devices int
	Jobs    int
	Misses  int
	EnergyJ float64
	// DeviceEnergyJ and DeviceMissRate are streaming-quantile
	// estimates of the per-device distributions.
	DeviceEnergyJ  Quantiles
	DeviceMissRate Quantiles
	// ByPlatform and ByWorkload break the fleet down, sorted by name.
	ByPlatform []GroupAgg
	ByWorkload []GroupAgg
	// PerDevice holds every device's outcome, in index order.
	PerDevice []DeviceResult
	// Events is the number of decision events delivered to Config.Sink
	// (zero when no sink was configured).
	Events uint64
}

// MissRate is the fleet-wide deadline-miss fraction.
func (r *Result) MissRate() float64 { return missRate(r.Misses, r.Jobs) }

// missRate is misses/jobs, zero without jobs.
func missRate(misses, jobs int) float64 {
	if jobs == 0 {
		return 0
	}
	return float64(misses) / float64(jobs)
}

// devOut carries one finished device from a worker to the commit
// stage.
type devOut struct {
	res    DeviceResult
	events []obs.DecisionEvent
	err    error
}

// Run simulates the fleet. Deterministic for a fixed Config:
// scheduling never reorders aggregation or trace output.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("fleet: device count must be positive, got %d", cfg.Devices)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Devices {
		workers = cfg.Devices
	}

	// Resolve platforms and pre-train controllers serially, before the
	// pool starts, so workers only ever read them. Training cost is paid
	// once per (platform, workload), not per device, with the
	// experiment suite's settings: profiling at Seed+17 against the
	// switch table measured at Seed+2000.
	needsController, err := core.NeedsController(cfg.Governor)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	plats := make(map[string]*devicePlatform, len(cfg.Platforms))
	for _, name := range cfg.Platforms {
		if _, ok := plats[name]; ok {
			continue
		}
		p, err := platform.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		dp := &devicePlatform{plat: p}
		if needsController {
			dp.sw = platform.MeasureSwitchTable(p, 500, 0.95, cfg.Seed+2000)
			dp.ctls = map[string]*core.Controller{}
			for _, m := range cfg.Mix {
				w, err := workload.ByName(m.Workload)
				if err != nil {
					return nil, fmt.Errorf("fleet: %w", err)
				}
				if dp.ctls[w.Name] != nil {
					continue
				}
				c, err := core.Build(w, core.Config{Plat: p, ProfileSeed: cfg.Seed + 17, Switch: dp.sw})
				if err != nil {
					return nil, fmt.Errorf("fleet: building controller for %s on %s: %w", w.Name, name, err)
				}
				dp.ctls[w.Name] = c
			}
		}
		plats[name] = dp
	}

	type indexed struct {
		i   int
		out devOut
	}
	jobs := make(chan int)
	outs := make(chan indexed, workers*2)
	var abort sync.Once
	aborted := make(chan struct{})

	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out := runDevice(cfg, cfg.Spec(i), plats)
				if out.err != nil {
					abort.Do(func() { close(aborted) })
				}
				// Always deliverable: the committer drains outs until
				// every worker exits, even after an abort.
				outs <- indexed{i, out}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := 0; i < cfg.Devices; i++ {
			select {
			case jobs <- i:
			case <-aborted:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outs)
	}()

	// Commit stage: reassemble device order, then fold. Everything
	// order-sensitive (float sums, sketch updates, trace
	// emission, sequence numbering) happens here, single-threaded, in
	// device-index order.
	agg := newAggregator(cfg)
	reorder := make(map[int]devOut, workers*2)
	next := 0
	var firstErr error
	for o := range outs {
		if o.out.err != nil && firstErr == nil {
			firstErr = o.out.err
		}
		reorder[o.i] = o.out
		for {
			out, ok := reorder[next]
			if !ok {
				break
			}
			delete(reorder, next)
			if firstErr == nil {
				agg.commit(&out)
				if cfg.Progress != nil {
					cfg.Progress(next+1, cfg.Devices)
				}
			}
			next++
		}
		if firstErr != nil {
			abort.Do(func() { close(aborted) })
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if next != cfg.Devices {
		return nil, fmt.Errorf("fleet: committed %d of %d devices", next, cfg.Devices)
	}
	return agg.result(), nil
}

// devicePlatform is one platform model with what its devices share:
// the switch table and the trained controllers by workload name (both
// empty when the governor needs no controller). Read-only once the
// pool starts.
type devicePlatform struct {
	plat *platform.Platform
	sw   *platform.SwitchTable
	ctls map[string]*core.Controller
}

// controller is the platform's core.ControllerSource.
func (d *devicePlatform) controller(w *workload.Workload) (*core.Controller, error) {
	if c := d.ctls[w.Name]; c != nil {
		return c, nil
	}
	return nil, fmt.Errorf("no controller trained for %s on %s", w.Name, d.plat.Name)
}

// runDevice simulates one device: resolve its workload, build a
// per-device governor through the core registry (a prediction governor
// is a clone of the shared trained controller), attach a tracer when
// events are wanted, run, and adapt the outcome. The per-decision work
// inside the run is the already-annotated //dvfs:hotpath controller
// path (core.Controller.PredictTrace).
func runDevice(cfg Config, spec DeviceSpec, plats map[string]*devicePlatform) devOut {
	w, err := workload.ByName(spec.Workload)
	if err != nil {
		return devOut{err: fmt.Errorf("fleet: device %s: %w", spec.ID, err)}
	}
	dp := plats[spec.Platform]
	gov, err := core.NewGovernor(cfg.Governor, w, dp.plat, dp.sw, dp.controller)
	if err != nil {
		return devOut{err: fmt.Errorf("fleet: device %s: %w", spec.ID, err)}
	}
	var mem *obs.MemorySink
	if ctl, ok := gov.(*core.Controller); ok && cfg.Sink != nil {
		mem = &obs.MemorySink{}
		ctl.SetTracer(obs.NewTracer(obs.TracerOptions{Sinks: []obs.Sink{mem}}))
	}
	r, err := sim.Run(w, gov, cfg.SimConfig(spec, dp.plat))
	if err != nil {
		return devOut{err: fmt.Errorf("fleet: device %s: %w", spec.ID, err)}
	}
	out := devOut{res: DeviceResult{
		Spec:    spec,
		EnergyJ: r.EnergyJ,
		Jobs:    len(r.Records),
		Misses:  r.Misses,
	}}
	if cfg.Sink != nil {
		if mem != nil {
			out.events = trace.MergeDecisions(mem.Events(), r)
		} else {
			out.events = trace.DecisionEvents(r)
		}
		for i := range out.events {
			out.events[i].Device = spec.ID
			out.events[i].Platform = spec.Platform
			// Span ledgers measure the *host's* per-phase decision
			// latency on its wall clock — meaningless for a simulated
			// device, and the one wall-clock-dependent field that would
			// break bit-identical traces across runs. Fleet traces carry
			// simulated time only.
			out.events[i].Spans = nil
			out.events[i].SpanTotalSec = 0
		}
	}
	return out
}

// aggregator folds committed devices into the fleet result. All state
// is touched only by the commit stage.
type aggregator struct {
	cfg        Config
	res        Result
	energySk   *obs.QuantileSketch
	missSk     *obs.QuantileSketch
	byPlatform map[string]*GroupAgg
	byWorkload map[string]*GroupAgg
	seq        uint64
}

func newAggregator(cfg Config) *aggregator {
	return &aggregator{
		cfg:        cfg,
		energySk:   obs.NewQuantileSketch(0),
		missSk:     obs.NewQuantileSketch(0),
		byPlatform: map[string]*GroupAgg{},
		byWorkload: map[string]*GroupAgg{},
	}
}

func (a *aggregator) group(m map[string]*GroupAgg, name string) *GroupAgg {
	g, ok := m[name]
	if !ok {
		g = &GroupAgg{Name: name}
		m[name] = g
	}
	return g
}

func (a *aggregator) commit(out *devOut) {
	d := &out.res
	a.res.Devices++
	a.res.Jobs += d.Jobs
	a.res.Misses += d.Misses
	a.res.EnergyJ += d.EnergyJ
	a.energySk.Add(d.EnergyJ)
	a.missSk.Add(d.MissRate())
	for _, g := range []*GroupAgg{
		a.group(a.byPlatform, d.Spec.Platform),
		a.group(a.byWorkload, d.Spec.Workload),
	} {
		g.Devices++
		g.Jobs += d.Jobs
		g.Misses += d.Misses
		g.EnergyJ += d.EnergyJ
	}
	a.res.PerDevice = append(a.res.PerDevice, *d)
	if a.cfg.Sink != nil {
		a.emitEvents(out.events)
	}
}

// emitEvents renumbers a committed device's events into the global
// fleet sequence and forwards them to the sink — the fleet-side
// per-event hot loop every traced decision funnels through (tens of
// millions of events on large fleets).
//
//dvfs:hotpath
func (a *aggregator) emitEvents(events []obs.DecisionEvent) {
	for i := range events {
		a.seq++
		events[i].Seq = a.seq
		//dvfs:allow-alloc dynamic sink dispatch; concrete sinks gate their own hot paths (BinaryWriter.Emit is alloc-gated)
		a.cfg.Sink.Emit(&events[i])
	}
	a.res.Events += uint64(len(events))
}

func (a *aggregator) result() *Result {
	q := func(s *obs.QuantileSketch) Quantiles {
		return Quantiles{
			P50: s.Quantile(0.50),
			P90: s.Quantile(0.90),
			P95: s.Quantile(0.95),
			P99: s.Quantile(0.99),
		}
	}
	a.res.DeviceEnergyJ = q(a.energySk)
	a.res.DeviceMissRate = q(a.missSk)
	a.res.ByPlatform = sortedGroups(a.byPlatform)
	a.res.ByWorkload = sortedGroups(a.byWorkload)
	return &a.res
}

func sortedGroups(m map[string]*GroupAgg) []GroupAgg {
	out := make([]GroupAgg, 0, len(m))
	for _, g := range m {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
