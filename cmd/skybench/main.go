// Command skybench runs the experiment registry of internal/experiments:
// the paper's evaluation (Figures 5(a)–7(b), the Section IV theorem
// table), the design studies beyond it (ablation, sensitivity, partitions,
// flight, critpath-chart) and the repository's acceptance gates (kernels,
// spill, serve, critpath, obs). It prints each experiment's table as it
// finishes, writes every row to one results file, and exits 1 when a gate
// row is past its bound (2 on an error or a bad flag).
//
// Usage:
//
//	skybench [-run all|<name>] [-scale quick|ci|full] [-seed N] [-plot] [-out results.json]
//
// quick is the CI smoke run and bounds no timing row; ci is the gated CI
// jobs' sizes; full is the paper's 100,000-service scale and the
// EXPERIMENTS.md recipes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment to run: "+strings.Join(experiments.Names(), ", "))
	scale := flag.String("scale", "quick", "size preset: "+strings.Join(experiments.ScaleNames, ", "))
	seed := flag.Int64("seed", 2012, "seed of every dataset draw")
	plot := flag.Bool("plot", false, "draw each experiment's ASCII chart under its table")
	out := flag.String("out", "", "write every row to this results file (JSON)")
	flag.Parse()

	exps, err := experiments.Lookup(*run)
	var sc experiments.Scale
	if err == nil {
		sc, err = experiments.ScaleFor(*scale)
	}
	if err == nil && flag.NArg() > 0 {
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "skybench:", err)
		os.Exit(2)
	}
	sc.Seed = *seed
	os.Exit(experiments.Main(context.Background(), os.Stdout, exps, sc, *plot, *out))
}
