// Command dvfsreplay is the offline counterfactual-analysis tool over
// decision logs: it reconstructs the energy the traced policy spent
// (attributed to execution, predictor, DVFS switches, and idle slack)
// and replays every decision under counterfactual policies — oracle,
// performance, powersave, the PID baseline, and what-if margin/α
// sweeps of the predictor — without re-running the workload. When
// events carry per-phase span ledgers (dvfssim/dvfsd with tracing on)
// the report also attributes the predictor overhead to measured
// phases — slice eval, model predict, level select — alongside the
// static estimate the energy reconstruction charges.
//
// Fleet traces (dvfsfleet -out, binary or exported JSONL) replay
// device by device: each device's events reconstruct against its own
// platform, and the margin sweep aggregates into fleet distributions
// (p50/p95/p99 per-device energy delta, fleet miss rate, per-platform
// breakdown). -fleet auto (the default) selects fleet mode when the
// trace carries device IDs; -device replays one device single-mode.
// Devices replay in parallel (-workers, default GOMAXPROCS) with
// in-order commits, so every report is byte-identical regardless of
// worker count; -slo-target adds a keyed fleet SLO burn section
// (fleet-wide plus per-platform and per-workload keys).
//
// Usage:
//
//	dvfssim -workload ldecode -governor prediction -trace - | dvfsreplay -html report.html
//	dvfsreplay -input dec.jsonl -platform a7 -format json
//	dvfsreplay -input dec.jsonl -check
//	dvfsreplay -input fleet.bin -html fleet.html          # fleet margin sweep
//	dvfsreplay -input fleet.bin -device dev-0000003 -fleet off
//
// -check asserts the physical ordering every healthy prediction trace
// satisfies: oracle ≤ traced ≤ performance energy.
//
// Exit status: 0 on success, 2 on usage errors, 1 on analysis
// failures or ordering violations.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

func main() {
	input := flag.String("input", "-", "decision log to replay, JSONL or binary (- for stdin)")
	fleetMode := flag.String("fleet", "auto", "fleet replay: auto (fleet when the trace carries device IDs), on, off")
	platName := flag.String("platform", "a7", "platform the trace was recorded on: a7, x86, biglittle")
	seed := flag.Int64("seed", 1, "seed for counterfactual switch-latency jitter (same seed → bit-identical output)")
	rho := flag.Float64("rho", 0, "fallback memory-time fraction for cross-frequency time translation (0 → 0.3; predicted jobs estimate it from the trace)")
	alpha := flag.Float64("alpha", 100, "α the traced model was trained with (anchors the α sweep)")
	format := flag.String("format", "text", "stdout format: text or json")
	htmlOut := flag.String("html", "", "also write a self-contained HTML report to this file")
	check := flag.Bool("check", false, "assert oracle ≤ traced ≤ performance energy ordering per group")
	workers := flag.Int("workers", 0, "fleet replay parallelism: devices replayed concurrently (0 → GOMAXPROCS); reports are byte-identical at any setting")
	sloTarget := flag.Float64("slo-target", 0, "fleet replay: track keyed SLO burn (fleet/platform/workload) against this miss-rate target (0 disables)")
	var filter obs.EventFilter
	filter.RegisterFilterFlags(flag.CommandLine)
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	usageErr := func(err error) {
		fmt.Fprintln(os.Stderr, "dvfsreplay:", err)
		flag.Usage()
		os.Exit(2)
	}
	if _, err := logFlags.Logger(os.Stderr); err != nil {
		usageErr(err)
	}
	if *format != "text" && *format != "json" {
		usageErr(fmt.Errorf("unknown format %q (use text or json)", *format))
	}
	if filter.Last < 0 {
		usageErr(fmt.Errorf("-last must be non-negative"))
	}
	if *fleetMode != "auto" && *fleetMode != "on" && *fleetMode != "off" {
		usageErr(fmt.Errorf("unknown -fleet mode %q (use auto, on, or off)", *fleetMode))
	}
	if *workers < 0 {
		usageErr(fmt.Errorf("-workers must be non-negative"))
	}
	if *sloTarget < 0 || *sloTarget >= 1 {
		usageErr(fmt.Errorf("-slo-target must be in [0,1)"))
	}
	plat, err := platform.ByName(*platName)
	if err != nil {
		usageErr(err)
	}
	var rd io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			usageErr(err)
		}
		defer f.Close()
		rd = f
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dvfsreplay:", err)
		os.Exit(1)
	}
	events, err := trace.ReadEvents(rd)
	if err != nil {
		fail(err)
	}
	events = filter.Apply(events)

	isFleet := *fleetMode == "on"
	if *fleetMode == "auto" && filter.Device == "" {
		for i := range events {
			if events[i].Device != "" {
				isFleet = true
				break
			}
		}
	}
	if isFleet {
		if *check {
			usageErr(fmt.Errorf("-check is a single-device mode; use -device to select one device or -fleet off"))
		}
		var slo *obs.SLOTracker
		if *sloTarget > 0 {
			slo = obs.NewSLOTracker(obs.SLOConfig{Target: *sloTarget, MaxKeys: 64})
		}
		res, err := replay.RunFleet(events, replay.FleetOptions{
			Plat:        plat,
			Seed:        *seed,
			Rho:         *rho,
			TracedAlpha: *alpha,
			Workers:     *workers,
			SLO:         slo,
		})
		if err != nil {
			fail(err)
		}
		if err := writeReport(res, *format, *htmlOut); err != nil {
			fail(err)
		}
		return
	}
	res, err := replay.Run(events, replay.Options{
		Plat:        plat,
		Seed:        *seed,
		Rho:         *rho,
		TracedAlpha: *alpha,
	})
	if err != nil {
		fail(err)
	}
	if len(res.Groups) == 0 {
		fail(fmt.Errorf("no replayable (completed) events in the log after filtering"))
	}
	if err := writeReport(res, *format, *htmlOut); err != nil {
		fail(err)
	}
	if *check {
		if viol := res.CheckOrdering(1); len(viol) > 0 {
			for _, v := range viol {
				fmt.Fprintln(os.Stderr, "dvfsreplay: ORDERING:", v)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "dvfsreplay: energy ordering check passed (oracle ≤ traced ≤ performance)")
	}
}

// report is what the single-device and fleet replays both render.
type report interface {
	WriteText(io.Writer)
	WriteJSON(io.Writer) error
	WriteHTML(io.Writer) error
}

// writeReport renders rep to stdout in format and, when htmlOut is
// set, as a self-contained HTML page.
func writeReport(rep report, format, htmlOut string) error {
	if format == "json" {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		rep.WriteText(os.Stdout)
	}
	if htmlOut == "" {
		return nil
	}
	f, err := os.Create(htmlOut)
	if err != nil {
		return err
	}
	if err := rep.WriteHTML(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
