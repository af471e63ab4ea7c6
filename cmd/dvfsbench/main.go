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
	order := experiments.Names
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
		if err := s.Report(os.Stdout, e, *bench); err != nil {
			fmt.Fprintf(os.Stderr, "dvfsbench: %s: %v\n", e, err)
			os.Exit(1)
		}
	}
}
