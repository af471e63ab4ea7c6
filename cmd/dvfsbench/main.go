// Command dvfsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dvfsbench [-seed N] [-exp <list>|all]
//
// Experiments: table2, fig2, fig3, fig9, fig11, fig15, fig16, fig17,
// fig18, fig19, fig20, fig21 (the paper's evaluation), xplat (§4.2),
// static (§2.2), a15 (§5.1), and the extension studies ablations,
// placement, batch, hetero, hints, overheadcap, multitask, quadratic,
// baselines. Each prints the text equivalent of the corresponding
// table or figure; -exp all (the default) runs everything in paper
// order. Results are deterministic in the seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/workload"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed (results are deterministic per seed)")
	exp := flag.String("exp", "all", "experiment to run (comma separated), or 'all'")
	bench := flag.String("workload", "", "restrict fig16 to one benchmark (default: all)")
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	if _, err := logFlags.Logger(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	s := experiments.NewSuite(*seed)
	wanted := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		wanted[strings.TrimSpace(e)] = true
	}
	all := wanted["all"]
	order := []string{"table2", "fig2", "fig3", "fig9", "fig11", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "xplat", "ablations", "placement", "batch", "hetero", "hints", "overheadcap", "multitask", "quadratic", "baselines", "static", "a15"}
	known := map[string]bool{}
	for _, o := range order {
		known[o] = true
	}
	if !all {
		for e := range wanted {
			if !known[e] {
				fmt.Fprintf(os.Stderr, "dvfsbench: unknown experiment %q (have: all, %s)\n",
					e, strings.Join(order, ", "))
				os.Exit(2)
			}
		}
	}
	for _, e := range order {
		if !all && !wanted[e] {
			continue
		}
		if err := runExp(s, e, *bench); err != nil {
			fmt.Fprintf(os.Stderr, "dvfsbench: %s: %v\n", e, err)
			os.Exit(1)
		}
	}
}

func runExp(s *experiments.Suite, name, bench string) error {
	switch name {
	case "table2":
		rows, err := s.RunTable2()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Table2(rows))
	case "fig2":
		series, err := s.RunFig2(250)
		if err != nil {
			return err
		}
		fmt.Println(render.Series("Fig 2: ldecode per-frame execution time [ms] at max frequency", series.TimeMS, 100, 12))
	case "fig3":
		series, err := s.RunFig3(250)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig3(series, 12))
	case "fig9":
		pts, err := s.RunFig9()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig9(pts))
	case "fig11":
		fmt.Println(experiments.Fig11(s.RunFig11()))
	case "fig15":
		rows, err := s.RunFig15()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig15(rows))
	case "fig16":
		ws := workload.All()
		if bench != "" {
			w, err := workload.ByName(bench)
			if err != nil {
				return err
			}
			ws = []*workload.Workload{w}
		}
		for _, w := range ws {
			sw, err := s.RunFig16(w)
			if err != nil {
				return err
			}
			fmt.Println(experiments.Fig16(sw))
		}
	case "fig17":
		rows, err := s.RunFig17()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig17(rows))
	case "fig18":
		rows, err := s.RunFig18()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig18(rows))
	case "fig19":
		rows, err := s.RunFig19()
		if err != nil {
			return err
		}
		sphinx, err := s.RunFig19Pocketsphinx()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig19(rows, sphinx))
	case "fig20":
		pts, err := s.RunFig20()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig20(pts))
	case "fig21":
		rows, err := s.RunFig21()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig21(rows))
	case "xplat":
		rows, err := s.RunXPlat()
		if err != nil {
			return err
		}
		fmt.Println(experiments.XPlat(rows))
	case "ablations":
		mpts, err := s.RunAblationMargin()
		if err != nil {
			return err
		}
		fmt.Println(experiments.AblationMargin(mpts))
		spts, err := s.RunAblationSwitchTable()
		if err != nil {
			return err
		}
		fmt.Println(experiments.AblationSwitchTable(spts))
		srows, err := s.RunAblationSlice()
		if err != nil {
			return err
		}
		fmt.Println(experiments.AblationSlice(srows))
	case "placement":
		rows, err := s.RunPlacement()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Placement(rows))
	case "batch":
		pts, err := s.RunBatch()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Batch(pts))
	case "hetero":
		pts, err := s.RunHetero()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Hetero(pts))
	case "hints":
		rows, err := s.RunHints()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Hints(rows))
	case "overheadcap":
		pts, err := s.RunOverheadCap()
		if err != nil {
			return err
		}
		fmt.Println(experiments.OverheadCap(pts))
	case "multitask":
		rows, err := s.RunMultiTask()
		if err != nil {
			return err
		}
		fmt.Println(experiments.MultiTask(rows))
	case "quadratic":
		rows, err := s.RunQuadratic()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Quadratic(rows))
	case "baselines":
		for _, wl := range []string{"ldecode", "sha"} {
			rows, err := s.RunBaselines(wl)
			if err != nil {
				return err
			}
			fmt.Println(experiments.Baselines(wl, rows))
		}
	case "static":
		rows, err := s.RunStatic()
		if err != nil {
			return err
		}
		fmt.Println(experiments.Static(rows))
	case "a15":
		rows, err := s.RunA15Trends()
		if err != nil {
			return err
		}
		fmt.Println(experiments.A15(rows))
	}
	return nil
}
