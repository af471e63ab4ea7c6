package render

import (
	"strings"
	"testing"
)

func TestSeriesRender(t *testing.T) {
	ys := make([]float64, 300)
	for i := range ys {
		ys[i] = float64(i % 30)
	}
	out := Series("test", ys, 80, 8)
	if !strings.Contains(out, "test") || !strings.Contains(out, "*") {
		t.Errorf("series render broken:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 9 { // title + 8 rows
		t.Errorf("series has %d lines, want 9", len(lines))
	}
	if Series("empty", nil, 10, 4) == "" {
		t.Error("empty series should still render a line")
	}
	// Constant series must not divide by zero.
	if out := Series("flat", []float64{5, 5, 5}, 10, 4); !strings.Contains(out, "*") {
		t.Errorf("flat series broken:\n%s", out)
	}
}
