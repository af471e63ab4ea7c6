// Package render formats results for people: Series draws an ASCII
// strip chart for terminal output, and HTMLPage builds the
// self-contained HTML reports and dashboards the replay engine and the
// daemon serve. It depends on no other package of the repository.
package render

import (
	"fmt"
	"math"
	"strings"
)

// Series renders an ASCII strip chart of ys (one column per sample,
// `height` rows), labeled with its min/max.
func Series(title string, ys []float64, width, height int) string {
	if len(ys) == 0 {
		return title + ": (empty)\n"
	}
	// Downsample to width columns by averaging.
	cols := make([]float64, 0, width)
	step := float64(len(ys)) / float64(width)
	if step < 1 {
		step = 1
	}
	for i := 0.0; int(i) < len(ys) && len(cols) < width; i += step {
		lo := int(i)
		hi := int(i + step)
		if hi > len(ys) {
			hi = len(ys)
		}
		s := 0.0
		for _, v := range ys[lo:hi] {
			s += v
		}
		cols = append(cols, s/float64(hi-lo))
	}
	minV, maxV := cols[0], cols[0]
	for _, v := range cols {
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	span := maxV - minV
	if span == 0 {
		span = 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", len(cols)))
	}
	for c, v := range cols {
		r := int((v - minV) / span * float64(height-1))
		grid[height-1-r][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (min %.2f, max %.2f)\n", title, minV, maxV)
	for r, line := range grid {
		label := "        "
		if r == 0 {
			label = fmt.Sprintf("%7.1f ", maxV)
		}
		if r == height-1 {
			label = fmt.Sprintf("%7.1f ", minV)
		}
		fmt.Fprintf(&b, "%s|%s\n", label, string(line))
	}
	return b.String()
}
