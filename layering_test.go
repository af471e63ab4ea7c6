package repro_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestLayering keeps the dependency graph pointing downward: the
// presentation and analysis layers that dvfsd and dvfsreplay link must
// not pull in the experiment suite (and with it the controller
// builder, the simulator and every workload), and the fleet engine
// builds its governors through the core registry, not the suite. Only
// non-test imports count.
func TestLayering(t *testing.T) {
	const module = "repro/"
	for _, c := range []struct{ pkg, banned string }{
		{"repro/internal/render", "repro/internal/experiments"},
		{"repro/internal/replay", "repro/internal/experiments"},
		{"repro/internal/fleet", "repro/internal/experiments"},
	} {
		seen := map[string]bool{}
		var path []string
		var walk func(pkg string) bool
		walk = func(pkg string) bool {
			if pkg == c.banned {
				return true
			}
			if seen[pkg] {
				return false
			}
			seen[pkg] = true
			bp, err := build.Default.ImportDir(filepath.FromSlash(strings.TrimPrefix(pkg, module)), 0)
			if err != nil {
				t.Fatalf("%s: %v", pkg, err)
			}
			for _, imp := range bp.Imports {
				if strings.HasPrefix(imp, module) && walk(imp) {
					path = append(path, imp)
					return true
				}
			}
			return false
		}
		if walk(c.pkg) {
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			t.Errorf("%s imports %s via %s", c.pkg, c.banned, strings.Join(path, " → "))
		}
	}
}
