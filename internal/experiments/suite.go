// Package experiments regenerates every table and figure of the
// paper's evaluation (§2, §3.4, §5): each Run* function returns typed
// rows mirroring what the paper plots, and the cmd/dvfsbench tool
// renders them as text tables. DESIGN.md carries the experiment index.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Suite caches the expensive shared artifacts (platform, switch table,
// trained controllers) across experiments.
type Suite struct {
	// Plat is the modeled board.
	Plat *platform.Platform
	// Switch is the measured 95th-percentile switch-time table.
	Switch *platform.SwitchTable
	// Seed drives every stochastic element; a Suite with the same seed
	// reproduces results bit-for-bit.
	Seed int64

	controllers map[string]*core.Controller
	// results keeps experiment results by key when non-nil (see memo).
	results map[string]any
}

// NewSuite builds a suite around the ODROID-XU3 A7 model.
func NewSuite(seed int64) *Suite {
	p := platform.ODROIDXU3A7()
	return &Suite{
		Plat:        p,
		Switch:      platform.MeasureSwitchTable(p, 500, 0.95, seed+1000),
		Seed:        seed,
		controllers: map[string]*core.Controller{},
	}
}

// Controller returns the trained prediction controller for w, building
// it on first use.
func (s *Suite) Controller(w *workload.Workload) (*core.Controller, error) {
	if c, ok := s.controllers[w.Name]; ok {
		return c, nil
	}
	c, err := core.Build(w, core.Config{
		Plat:        s.Plat,
		ProfileSeed: s.Seed + 17,
		Switch:      s.Switch,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: building controller for %s: %w", w.Name, err)
	}
	s.controllers[w.Name] = c
	return c, nil
}

// GovernorNames is the evaluation order of §5.2.
var GovernorNames = []string{"performance", "interactive", "pid", "prediction"}

// Governor instantiates a fresh governor by name for one run through
// the core registry, training w's controller on first use.
func (s *Suite) Governor(name string, w *workload.Workload) (governor.Governor, error) {
	return core.NewGovernor(name, w, s.Plat, s.Switch, s.Controller)
}

// runOne simulates workload w under the named governor.
func (s *Suite) runOne(name string, w *workload.Workload, cfg sim.Config) (*sim.Result, error) {
	g, err := s.Governor(name, w)
	if err != nil {
		return nil, err
	}
	cfg.Plat = s.Plat
	if cfg.Seed == 0 {
		cfg.Seed = s.Seed + 7
	}
	return sim.Run(w, g, cfg)
}

// maxJobTimeAtFmax measures the maximum job time at full speed, which
// defines normalized budget 1.0 in Fig 16 ("the tightest budget such
// that all jobs are able to meet their deadline").
func (s *Suite) maxJobTimeAtFmax(w *workload.Workload) (float64, error) {
	r, err := s.runOne("performance", w, sim.Config{NoiseSigma: -1})
	if err != nil {
		return 0, err
	}
	return stats.Summarize(r.ExecTimes()).Max, nil
}

// newX86Suite builds a suite around the x86 platform model for the
// cross-platform feature-selection study (§4.2).
func newX86Suite(seed int64) *Suite {
	return NewSuiteOn(platform.IntelI7(), seed)
}

// NewSuiteOn builds a suite around an arbitrary platform model.
func NewSuiteOn(p *platform.Platform, seed int64) *Suite {
	return &Suite{
		Plat:        p,
		Switch:      platform.MeasureSwitchTable(p, 500, 0.95, seed+2000),
		Seed:        seed,
		controllers: map[string]*core.Controller{},
	}
}
