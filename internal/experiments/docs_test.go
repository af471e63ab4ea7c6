package experiments

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docSection returns the lines of EXPERIMENTS.md under the "## "
// heading that starts with title, up to the next such heading.
func docSection(t *testing.T, doc, title string) []string {
	t.Helper()
	var out []string
	in := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## "+title)
			continue
		}
		if in {
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", title)
	}
	return out
}

// quoted formats v with as many decimals as the quoted number s has,
// so a measured value is compared the way the document rounds it.
func quoted(v float64, s string) string {
	decimals := 0
	if i := strings.IndexByte(s, '.'); i >= 0 {
		decimals = len(s) - i - 1
	}
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// TestExperimentsDocMatchesReport keeps EXPERIMENTS.md in step with
// `dvfsbench -exp all -seed 1`: every measured number of the Headline
// table and of Table 2 must equal the report's value rounded to the
// decimals the document quotes. The headline's derived figures (the
// savings and the two percentage-point gaps) are recomputed from the
// report's one-decimal averages, as a reader would. It reads the shared
// suite's memoized results, so it trains and simulates nothing itself.
func TestExperimentsDocMatchesReport(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	rows, err := testSuite.RunFig15()
	if err != nil {
		t.Fatal(err)
	}
	avg := rows[len(rows)-1]
	// The report prints the averages with one decimal.
	report := func(m map[string]float64, gov string) float64 {
		v, _ := strconv.ParseFloat(fmt.Sprintf("%.1f", m[gov]), 64)
		return v
	}
	pred, inter, pid := report(avg.EnergyPct, "prediction"), report(avg.EnergyPct, "interactive"), report(avg.EnergyPct, "pid")
	headline := strings.Join(docSection(t, doc, "Headline"), "\n")
	num := `(\d+\.\d+)`
	for _, c := range []struct {
		pattern string
		want    []float64
	}{
		{`\*\*` + num + `%\*\* savings \(` + num + `% normalized energy\), \*\*` + num + `%\*\* misses`,
			[]float64{100 - pred, avg.EnergyPct["prediction"], avg.MissPct["prediction"]}},
		{`\*\*` + num + ` pp\*\* more savings than interactive \(` + num + `%\), which misses \*\*` + num + `%\*\*`,
			[]float64{inter - pred, avg.EnergyPct["interactive"], avg.MissPct["interactive"]}},
		{`\*\*` + num + ` pp\*\* difference vs\. PID \(` + num + `%\), PID misses \*\*` + num + `%\*\*`,
			[]float64{math.Abs(pred - pid), avg.EnergyPct["pid"], avg.MissPct["pid"]}},
	} {
		m := regexp.MustCompile(c.pattern).FindStringSubmatch(headline)
		if m == nil {
			t.Errorf("Headline: no row matches %s", c.pattern)
			continue
		}
		for i, want := range c.want {
			if got := quoted(want, m[i+1]); got != m[i+1] {
				t.Errorf("Headline %q quotes %s, the report gives %s", m[0], m[i+1], got)
			}
		}
	}

	t2, err := testSuite.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string][]float64{}
	for _, r := range t2 {
		measured[r.Benchmark] = []float64{r.MinMS, r.AvgMS, r.MaxMS}
	}
	seen := 0
	for _, line := range docSection(t, doc, "Table 2") {
		cells := strings.Split(line, "|")
		if len(cells) != 5 {
			continue
		}
		name := strings.TrimSpace(cells[1])
		want, ok := measured[name]
		if !ok {
			continue
		}
		seen++
		nums := strings.Split(strings.TrimSpace(cells[2]), " / ")
		if len(nums) != 3 {
			t.Errorf("Table 2 row %q: measured cell is not min / avg / max", line)
			continue
		}
		for i, s := range nums {
			if got := quoted(want[i], s); got != s {
				t.Errorf("Table 2 %s quotes %s, the report gives %s", name, s, got)
			}
		}
	}
	if seen != len(t2) {
		t.Errorf("Table 2 quotes %d of the report's %d benchmarks", seen, len(t2))
	}
}
