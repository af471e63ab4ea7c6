package replay

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/obs"
)

// WriteText renders the replay deterministically for a terminal: one
// block per (workload, governor) group with the traced energy
// attribution, the counterfactual table normalized the way the
// paper's Fig 15 is, and the what-if sweeps.
func (r *Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "replay      platform %s, %d events (%d skipped)\n",
		r.Platform, r.Events, r.Skipped)
	if r.SeqGaps > 0 {
		fmt.Fprintf(w, "dropped     %d sequence gaps — events lost (ring overwrite, truncation) or filtered out; analysis covers an incomplete stream\n", r.SeqGaps)
	}
	for i := range r.Groups {
		g := &r.Groups[i]
		fmt.Fprintf(w, "\n%s / %s   %d jobs (%d predicted), period %.1f ms, budget %.1f ms, rho %.3f\n",
			g.Workload, g.Governor, g.Jobs, g.Predicted,
			g.PeriodSec*1e3, g.BudgetSec*1e3, g.Rho)
		for _, a := range g.Approx {
			fmt.Fprintf(w, "  approx    %s\n", a)
		}
		b := g.Traced.Breakdown
		fmt.Fprintf(w, "  traced    %.3f J = exec %.3f + predictor %.3f + switch %.3f + idle %.3f;  %d misses (%.2f%%)\n",
			g.Traced.EnergyJ, b.ExecJ, b.PredictorJ, b.SwitchJ, b.IdleJ,
			g.Traced.Misses, 100*g.Traced.MissRate)
		if g.SpanJobs > 0 {
			fmt.Fprintf(w, "  predictor measured %s/job (decision spans on %d jobs) vs static estimate %s/job\n",
				obs.FormatDur(g.MeasPredictorSec), g.SpanJobs, obs.FormatDur(g.EstPredictorSec))
			for _, ph := range g.Phases {
				fmt.Fprintf(w, "    %-14s %6d  mean %-10s p50 %-10s p95 %-10s max %s\n",
					ph.Name, ph.N, obs.FormatDur(ph.MeanSec), obs.FormatDur(ph.P50Sec),
					obs.FormatDur(ph.P95Sec), obs.FormatDur(ph.MaxSec))
			}
		}
		fmt.Fprintf(w, "  %-14s %10s %8s %8s %9s %10s\n",
			"policy", "energy J", "norm %", "misses", "miss %", "Δenergy %")
		for _, p := range g.Policies {
			fmt.Fprintf(w, "  %-14s %10.3f %8.1f %8d %9.2f %+10.1f\n",
				p.Name, p.EnergyJ, p.NormEnergyPct, p.Misses, 100*p.MissRate, p.DeltaEnergyPct)
		}
		writeSweep(w, "margin", g.MarginSweep, "%.2f")
		writeSweep(w, "alpha", g.AlphaSweep, "%.0f")
		if occ := occupancyLine(g); occ != "" {
			fmt.Fprintf(w, "  occupancy traced %s\n", occ)
		}
	}
}

func writeSweep(w io.Writer, name string, pts []SweepPoint, f string) {
	if len(pts) == 0 {
		return
	}
	fmt.Fprintf(w, "  %s sweep:", name)
	for _, p := range pts {
		fmt.Fprintf(w, "  "+f+"→%.1f%%/%d miss", p.Param, p.NormEnergyPct, p.Misses)
	}
	fmt.Fprintln(w)
}

func occupancyLine(g *GroupResult) string {
	if len(g.Traced.Levels) == 0 {
		return ""
	}
	parts := make([]string, 0, len(g.Traced.Levels))
	for _, l := range g.Traced.Levels {
		parts = append(parts, fmt.Sprintf("L%d:%.0f%%", l.Level, 100*l.Frac))
	}
	return strings.Join(parts, " ")
}

// WriteJSON writes the result as the indented JSON document
// dvfsreplay -format json prints.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CheckOrdering asserts the physical sanity every healthy prediction
// trace must satisfy: oracle energy ≤ traced/prediction energy ≤
// performance energy, per group (tolerance tolPct% absorbs switch-
// latency jitter between the traced run and the replayed
// counterfactuals). It returns one line per violation.
func (r *Result) CheckOrdering(tolPct float64) []string {
	tol := 1 + tolPct/100
	var out []string
	for i := range r.Groups {
		g := &r.Groups[i]
		oracle := g.Policy("oracle")
		perf := g.Policy("performance")
		if oracle == nil || perf == nil {
			continue
		}
		if oracle.EnergyJ > g.Traced.EnergyJ*tol {
			out = append(out, fmt.Sprintf("%s/%s: oracle %.3f J exceeds traced %.3f J",
				g.Workload, g.Governor, oracle.EnergyJ, g.Traced.EnergyJ))
		}
		if g.Traced.EnergyJ > perf.EnergyJ*tol {
			out = append(out, fmt.Sprintf("%s/%s: traced %.3f J exceeds performance %.3f J",
				g.Workload, g.Governor, g.Traced.EnergyJ, perf.EnergyJ))
		}
		if p := g.Policy("prediction"); p != nil && !math.IsNaN(p.EnergyJ) {
			if oracle.EnergyJ > p.EnergyJ*tol {
				out = append(out, fmt.Sprintf("%s/%s: oracle %.3f J exceeds replayed prediction %.3f J",
					g.Workload, g.Governor, oracle.EnergyJ, p.EnergyJ))
			}
			if p.EnergyJ > perf.EnergyJ*tol {
				out = append(out, fmt.Sprintf("%s/%s: replayed prediction %.3f J exceeds performance %.3f J",
					g.Workload, g.Governor, p.EnergyJ, perf.EnergyJ))
			}
		}
	}
	return out
}
