package experiments

import (
	"fmt"
	"io"

	"repro/internal/render"
	"repro/internal/workload"
)

// Names lists every experiment Report knows, in paper order: the
// order `dvfsbench -exp all` runs them in.
var Names = []string{"table2", "fig2", "fig3", "fig9", "fig11", "fig15",
	"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "xplat", "ablations", "placement", "batch", "hetero", "hints", "overheadcap", "multitask", "quadratic", "baselines", "static", "a15"}

// Report runs the named experiment and writes the text equivalent of
// its table or figure to w, as `dvfsbench -exp name` prints it. bench
// restricts fig16 to one workload ("" runs all). An unknown name
// writes nothing.
func (s *Suite) Report(w io.Writer, name, bench string) error {
	switch name {
	case "table2":
		rows, err := s.RunTable2()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Table2(rows))
	case "fig2":
		series, err := s.RunFig2(250)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render.Series("Fig 2: ldecode per-frame execution time [ms] at max frequency", series.TimeMS, 100, 12))
	case "fig3":
		series, err := s.RunFig3(250)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Fig3(series, 12))
	case "fig9":
		pts, err := s.RunFig9()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Fig9(pts))
	case "fig11":
		fmt.Fprintln(w, Fig11(s.RunFig11()))
	case "fig15":
		rows, err := s.RunFig15()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Fig15(rows))
	case "fig16":
		ws := workload.All()
		if bench != "" {
			wl, err := workload.ByName(bench)
			if err != nil {
				return err
			}
			ws = []*workload.Workload{wl}
		}
		for _, wl := range ws {
			sw, err := s.RunFig16(wl)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, Fig16(sw))
		}
	case "fig17":
		rows, err := s.RunFig17()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Fig17(rows))
	case "fig18":
		rows, err := s.RunFig18()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Fig18(rows))
	case "fig19":
		rows, err := s.RunFig19()
		if err != nil {
			return err
		}
		sphinx, err := s.RunFig19Pocketsphinx()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Fig19(rows, sphinx))
	case "fig20":
		pts, err := s.RunFig20()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Fig20(pts))
	case "fig21":
		rows, err := s.RunFig21()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Fig21(rows))
	case "xplat":
		rows, err := s.RunXPlat()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, XPlat(rows))
	case "ablations":
		mpts, err := s.RunAblationMargin()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, AblationMargin(mpts))
		spts, err := s.RunAblationSwitchTable()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, AblationSwitchTable(spts))
		srows, err := s.RunAblationSlice()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, AblationSlice(srows))
	case "placement":
		rows, err := s.RunPlacement()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Placement(rows))
	case "batch":
		pts, err := s.RunBatch()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Batch(pts))
	case "hetero":
		pts, err := s.RunHetero()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Hetero(pts))
	case "hints":
		rows, err := s.RunHints()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Hints(rows))
	case "overheadcap":
		pts, err := s.RunOverheadCap()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, OverheadCap(pts))
	case "multitask":
		rows, err := s.RunMultiTask()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, MultiTask(rows))
	case "quadratic":
		rows, err := s.RunQuadratic()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Quadratic(rows))
	case "baselines":
		for _, wl := range []string{"ldecode", "sha"} {
			rows, err := s.RunBaselines(wl)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, Baselines(wl, rows))
		}
	case "static":
		rows, err := s.RunStatic()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, Static(rows))
	case "a15":
		rows, err := s.RunA15Trends()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, A15(rows))
	}
	return nil
}
