package replay

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/render"
)

// WriteText renders the fleet replay deterministically for a
// terminal: fleet totals, the margin sweep with per-device delta
// distributions, and the per-platform breakdown.
func (r *FleetReplayResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "fleet replay  %d devices, %d events (%d skipped), %d jobs\n",
		r.Devices, r.Events, r.Skipped, r.Jobs)
	fmt.Fprintf(w, "traced        %.3f J, %d misses (%.2f%%)\n",
		r.TracedEnergyJ, r.TracedMisses, 100*r.TracedMissRate)
	if len(r.Margins) > 0 {
		fmt.Fprintf(w, "  %-8s %12s %10s %9s %10s %12s %12s %12s\n",
			"margin", "energy J", "misses", "miss %", "Δmiss pts", "ΔE% p50", "ΔE% p95", "ΔE% p99")
		for _, m := range r.Margins {
			fmt.Fprintf(w, "  %-8.2f %12.3f %10d %9.2f %+10.2f %+12.2f %+12.2f %+12.2f\n",
				m.Margin, m.EnergyJ, m.Misses, 100*m.MissRate, m.DeltaMissPts,
				m.DeltaEnergyPctP50, m.DeltaEnergyPctP95, m.DeltaEnergyPctP99)
		}
	}
	for _, p := range r.ByPlatform {
		missRate := 0.0
		if p.Jobs > 0 {
			missRate = float64(p.TracedMisses) / float64(p.Jobs)
		}
		fmt.Fprintf(w, "platform %-12s %6d devices, %8d jobs, traced %.3f J, %d misses (%.2f%%)\n",
			p.Platform, p.Devices, p.Jobs, p.TracedEnergyJ, p.TracedMisses, 100*missRate)
	}
	if len(r.SLO) > 0 {
		fmt.Fprintf(w, "slo burn      target %.2f%% miss rate\n", 100*r.SLOTarget)
		for _, s := range r.SLO {
			fmt.Fprintf(w, "  %-24s %8d jobs, %6d misses (%.2f%%), burn fast %.2fx slow %.2fx\n",
				s.Workload, s.Jobs, s.Misses, 100*s.MissRate, s.FastBurn, s.SlowBurn)
		}
	}
}

// WriteJSON writes the canonical machine-readable document, indented,
// deterministic for a deterministic result. The full per-device list
// rides along — it is what downstream tools (league tables, model
// transfer scoring) join against.
func (r *FleetReplayResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteHTML renders the fleet replay as a self-contained HTML report:
// the margin sweep as energy/miss bar charts over the fleet plus the
// tables WriteText prints. Deterministic: identical results produce
// identical bytes.
func (r *FleetReplayResult) WriteHTML(w io.Writer) error {
	p := render.NewHTMLPage("dvfsreplay — fleet counterfactual report")
	p.Para(fmt.Sprintf("%d devices, %d events ingested (%d skipped), %d jobs replayed.",
		r.Devices, r.Events, r.Skipped, r.Jobs))
	p.Para(fmt.Sprintf("Traced reconstruction: %.3f J, %d misses (%.2f%%).",
		r.TracedEnergyJ, r.TracedMisses, 100*r.TracedMissRate))

	if len(r.Margins) > 0 {
		p.Section("Margin sweep")
		header := []string{"margin", "energy J", "misses", "miss %", "Δmiss pts", "ΔE% p50", "ΔE% p95", "ΔE% p99"}
		rows := make([][]string, 0, len(r.Margins))
		labels := make([]string, 0, len(r.Margins))
		energies := make([]float64, 0, len(r.Margins))
		missRates := make([]float64, 0, len(r.Margins))
		for _, m := range r.Margins {
			rows = append(rows, []string{
				fmt.Sprintf("%.2f", m.Margin),
				fmt.Sprintf("%.3f", m.EnergyJ),
				fmt.Sprintf("%d", m.Misses),
				fmt.Sprintf("%.2f", 100*m.MissRate),
				fmt.Sprintf("%+.2f", m.DeltaMissPts),
				fmt.Sprintf("%+.2f", m.DeltaEnergyPctP50),
				fmt.Sprintf("%+.2f", m.DeltaEnergyPctP95),
				fmt.Sprintf("%+.2f", m.DeltaEnergyPctP99),
			})
			labels = append(labels, fmt.Sprintf("%.2f", m.Margin))
			energies = append(energies, m.EnergyJ)
			missRates = append(missRates, 100*m.MissRate)
		}
		p.Table(header, rows, []bool{true, true, true, true, true, true, true, true})
		p.BarChart("Fleet energy by margin [J]", labels, energies, "%.2f")
		p.BarChart("Fleet miss rate by margin [%]", labels, missRates, "%.2f")
	}

	if len(r.SLO) > 0 {
		p.Section("Fleet SLO burn")
		p.Para(fmt.Sprintf("Deadline-miss objective: %.2f%%. Burn is observed miss rate over the objective, per window.", 100*r.SLOTarget))
		header := []string{"key", "jobs", "misses", "miss %", "fast burn", "slow burn"}
		rows := make([][]string, 0, len(r.SLO))
		for _, s := range r.SLO {
			rows = append(rows, []string{
				s.Workload,
				fmt.Sprintf("%d", s.Jobs),
				fmt.Sprintf("%d", s.Misses),
				fmt.Sprintf("%.2f", 100*s.MissRate),
				fmt.Sprintf("%.2fx", s.FastBurn),
				fmt.Sprintf("%.2fx", s.SlowBurn),
			})
		}
		p.Table(header, rows, []bool{false, true, true, true, true, true})
	}

	if len(r.ByPlatform) > 0 {
		p.Section("Per-platform breakdown")
		header := []string{"platform", "devices", "jobs", "traced J", "misses", "miss %"}
		rows := make([][]string, 0, len(r.ByPlatform))
		for _, pp := range r.ByPlatform {
			missRate := 0.0
			if pp.Jobs > 0 {
				missRate = float64(pp.TracedMisses) / float64(pp.Jobs)
			}
			rows = append(rows, []string{
				pp.Platform,
				fmt.Sprintf("%d", pp.Devices),
				fmt.Sprintf("%d", pp.Jobs),
				fmt.Sprintf("%.3f", pp.TracedEnergyJ),
				fmt.Sprintf("%d", pp.TracedMisses),
				fmt.Sprintf("%.2f", 100*missRate),
			})
		}
		p.Table(header, rows, []bool{false, true, true, true, true, true})
	}

	_, err := p.WriteTo(w)
	return err
}
