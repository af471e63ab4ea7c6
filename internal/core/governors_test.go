package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestGovernorRegistry: every registered name builds a governor that
// reports that name; the source is asked exactly for the governors that
// need a controller; a prediction governor is a clone, never the
// shared controller; an unknown name is an error listing every name.
func TestGovernorRegistry(t *testing.T) {
	ctl := buildLDecode(t)
	w, p := ctl.W, ctl.Plat
	sw := ctl.Selector.Switch
	for _, name := range GovernorNames() {
		asked := false
		source := func(got *workload.Workload) (*Controller, error) {
			asked = true
			if got != w {
				t.Errorf("%s: source asked for %s", name, got.Name)
			}
			return ctl, nil
		}
		g, err := NewGovernor(name, w, p, sw, source)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.Name() != name {
			t.Errorf("registry name %q builds a governor named %q", name, g.Name())
		}
		if needs, err := NeedsController(name); err != nil || asked != needs {
			t.Errorf("%s: source asked %v, NeedsController %v, %v", name, asked, needs, err)
		}
		if c, ok := g.(*Controller); ok && c == ctl {
			t.Errorf("%s: got the shared controller, want a clone", name)
		}
	}

	failing := errors.New("no model")
	if _, err := NewGovernor("pid", w, p, sw, func(*workload.Workload) (*Controller, error) { return nil, failing }); !errors.Is(err, failing) {
		t.Errorf("pid with a failing source: err %v, want %v", err, failing)
	}
	_, err := NewGovernor("warp", w, p, sw, nil)
	if err == nil || !strings.Contains(err.Error(), strings.Join(GovernorNames(), ", ")) {
		t.Errorf("unknown governor: err %v, want one listing every name", err)
	}
	if needs, err := NeedsController("warp"); needs || err == nil {
		t.Errorf("NeedsController(warp) = %v, %v; want false and an error", needs, err)
	}
}
