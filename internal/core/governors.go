package core

import (
	"fmt"
	"strings"

	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/workload"
)

// ControllerSource returns the trained controller for a workload: a
// suite's training cache, a fleet's pre-trained set, or one model
// loaded from disk.
type ControllerSource func(w *workload.Workload) (*Controller, error)

// govArgs is what a registry row builds from; ctl is nil unless the
// row needs a controller.
type govArgs struct {
	p   *platform.Platform
	sw  *platform.SwitchTable
	ctl *Controller
}

// governors is the one governor registry, in the order help text and
// the extended baseline table list them. A prediction governor is a
// clone: the trained half is shared, the per-run mutable half (tracer,
// pending decisions) is not.
var governors = []struct {
	name            string
	needsController bool
	build           func(a govArgs) governor.Governor
}{
	{"performance", false, func(a govArgs) governor.Governor { return &governor.Performance{Plat: a.p} }},
	{"powersave", false, func(a govArgs) governor.Governor { return &governor.Powersave{Plat: a.p} }},
	{"ondemand", false, func(a govArgs) governor.Governor { return &governor.Ondemand{Plat: a.p} }},
	{"interactive", false, func(a govArgs) governor.Governor { return &governor.Interactive{Plat: a.p} }},
	{"movingavg", true, func(a govArgs) governor.Governor {
		return &governor.MovingAverage{Plat: a.p, Switch: a.sw, MemFraction: a.ctl.MemFraction()}
	}},
	{"pid", true, func(a govArgs) governor.Governor {
		return &governor.PID{Plat: a.p, Switch: a.sw, MemFraction: a.ctl.MemFraction()}
	}},
	{"prediction", true, func(a govArgs) governor.Governor { return a.ctl.Clone() }},
	{"oracle", false, func(a govArgs) governor.Governor { return &governor.Oracle{Plat: a.p} }},
}

// GovernorNames lists every governor NewGovernor builds, in registry
// order.
func GovernorNames() []string {
	names := make([]string, len(governors))
	for i, g := range governors {
		names[i] = g.name
	}
	return names
}

// lookupGovernor returns the registry row index of name.
func lookupGovernor(name string) (int, error) {
	for i := range governors {
		if governors[i].name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown governor %q (have: %s)", name, strings.Join(GovernorNames(), ", "))
}

// NeedsController reports whether the named governor is built from a
// trained controller: prediction itself, and the baselines calibrated
// from its profile. An unknown name is an error listing the valid ones.
func NeedsController(name string) (bool, error) {
	i, err := lookupGovernor(name)
	return err == nil && governors[i].needsController, err
}

// NewGovernor builds a fresh governor for one run of w on p; stateful
// governors must not be shared between runs. sw is the switch-time
// table the calibrated baselines plan with, and ctl is asked for w's
// trained controller only when the governor needs one.
func NewGovernor(name string, w *workload.Workload, p *platform.Platform, sw *platform.SwitchTable, ctl ControllerSource) (governor.Governor, error) {
	i, err := lookupGovernor(name)
	if err != nil {
		return nil, err
	}
	a := govArgs{p: p, sw: sw}
	if governors[i].needsController {
		if a.ctl, err = ctl(w); err != nil {
			return nil, err
		}
	}
	return governors[i].build(a), nil
}
