// Command skybench regenerates the paper's evaluation: Figures 5(a),
// 5(b), 6, 7(a), 7(b), the Section IV theorem table, and the ablation
// table from DESIGN.md.
//
// Usage:
//
//	skybench [-figure all|5a|5b|6|7a|7b|thm|ablation] [-full] [-seed N]
//
// By default a quick scale runs in minutes; -full uses the paper's
// 100,000-service configuration.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/asciiplot"
	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/qws"
	"repro/internal/telemetry"
	"repro/internal/telemetry/critpath"
)

func main() {
	figure := flag.String("figure", "all", "which experiment to run: all, 5a, 5b, 6, 7a, 7b, thm, ablation, sensitivity, partitions, flight, critpath")
	full := flag.Bool("full", false, "run at the paper's full scale (100,000 services)")
	seed := flag.Int64("seed", 2012, "dataset seed")
	plot := flag.Bool("plot", false, "render ASCII charts in addition to tables")
	jsonDir := flag.String("json", "", "also save each experiment's rows as JSON under this directory")
	flag.Parse()

	sc := experiments.QuickScale()
	if *full {
		sc = experiments.FullScale()
	}
	sc.Seed = *seed

	ctx := context.Background()
	start := time.Now()
	saveJSON := func(name string, rows interface{}) error {
		if *jsonDir == "" {
			return nil
		}
		path, err := experiments.SaveJSON(*jsonDir, name, rows)
		if err != nil {
			return err
		}
		fmt.Printf("  [rows saved to %s]\n", path)
		return nil
	}
	run := func(name string, f func() error) {
		if *figure != "all" && *figure != name {
			return
		}
		t0 := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "skybench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("  [%s completed in %s]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	fmt.Printf("MapReduce Skyline reproduction — scale: small N=%d, large N=%d, dims %v, seed %d\n\n",
		sc.SmallN, sc.LargeN, sc.Dims, sc.Seed)

	fig5 := func(label string, n int) func() error {
		return func() error {
			rows, err := experiments.Figure5(ctx, sc, n)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("Figure 5(%s): processing time vs dimension (N=%d)", label, n)
			experiments.WriteFigure5(os.Stdout, rows, title)
			if err := saveJSON("figure5"+label, rows); err != nil {
				return err
			}
			if *plot {
				return plotFigure5(rows, title)
			}
			return nil
		}
	}
	run("5a", fig5("a", sc.SmallN))
	run("5b", fig5("b", sc.LargeN))
	run("6", func() error {
		rows, err := experiments.Figure6(ctx, sc)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Figure 6: MR-Angle Map/Reduce breakdown vs servers (N=%d, d=%d, simulated cluster)",
			sc.LargeN, sc.Dims[len(sc.Dims)-1])
		experiments.WriteFigure6(os.Stdout, rows, title)
		if err := saveJSON("figure6", rows); err != nil {
			return err
		}
		if *plot {
			return plotFigure6(rows, title)
		}
		return nil
	})
	fig7 := func(label string, n int) func() error {
		return func() error {
			rows, err := experiments.Figure7(ctx, sc, n)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("Figure 7(%s): local skyline optimality vs dimension (N=%d)", label, n)
			experiments.WriteFigure7(os.Stdout, rows, title)
			if err := saveJSON("figure7"+label, rows); err != nil {
				return err
			}
			if *plot {
				return plotFigure7(rows, title)
			}
			return nil
		}
	}
	run("7a", fig7("a", sc.SmallN))
	run("7b", fig7("b", sc.LargeN))
	run("thm", func() error {
		rows := experiments.TheoremTable(500000, sc.Seed)
		experiments.WriteTheoremTable(os.Stdout, rows,
			"Theorems 1 & 2: dominance ability, analytic vs Monte-Carlo (L=1, y=x/4)")
		return saveJSON("theorems", rows)
	})
	run("sensitivity", func() error {
		n, d := 4000, 4
		if *full {
			n, d = 20000, 6
		}
		rows, err := experiments.Sensitivity(ctx, sc, n, d)
		if err != nil {
			return err
		}
		experiments.WriteSensitivity(os.Stdout, rows,
			fmt.Sprintf("Distribution sensitivity (N=%d, d=%d): methods across benchmark data shapes", n, d))
		return saveJSON("sensitivity", rows)
	})
	run("partitions", func() error {
		n, d := 4000, 6
		if *full {
			n, d = 20000, 8
		}
		rows, err := experiments.PartitionCount(ctx, sc, n, d)
		if err != nil {
			return err
		}
		experiments.WritePartitionCount(os.Stdout, rows,
			fmt.Sprintf("Partition-count study (N=%d, d=%d, nodes=%d): the paper's 2x rule in context", n, d, sc.Nodes))
		return saveJSON("partitions", rows)
	})
	run("flight", func() error {
		// One recorded run per method: the flight recorder's live
		// per-partition chart is the runtime view of Figures 7/8.
		n, d := 4000, 4
		if *full {
			n, d = 20000, 6
		}
		data := qws.Dataset(sc.Seed, n, d)
		fmt.Printf("Flight recorder (N=%d, d=%d): per-partition load and local optimality\n\n", n, d)
		for _, scheme := range experiments.Methods {
			rec := telemetry.NewRecorder(fmt.Sprintf("skyline:%s", scheme))
			if _, _, err := driver.Compute(telemetry.WithRecorder(ctx, rec), data, driver.Options{
				Scheme:  scheme,
				Nodes:   sc.Nodes,
				Workers: sc.Workers,
			}); err != nil {
				return fmt.Errorf("flight %v: %w", scheme, err)
			}
			if err := asciiplot.FlightChart(os.Stdout, rec.Report()); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	})
	run("critpath", func() error {
		// One traced run per method: the critical-path waterfall answers
		// "where did the makespan go" — phase and worker blame plus the
		// what-if rebalancing predictions, the runtime companion of the
		// flight figure.
		n, d := 4000, 4
		if *full {
			n, d = 20000, 6
		}
		data := qws.Dataset(sc.Seed, n, d)
		fmt.Printf("Critical path (N=%d, d=%d): makespan attribution and what-if predictions\n\n", n, d)
		for _, scheme := range experiments.Methods {
			rec := telemetry.NewRecorder(fmt.Sprintf("skyline:%s", scheme))
			tr := telemetry.NewTracer()
			cctx := telemetry.WithRecorder(telemetry.WithTracer(ctx, tr), rec)
			if _, _, err := driver.Compute(cctx, data, driver.Options{
				Scheme:  scheme,
				Nodes:   sc.Nodes,
				Workers: sc.Workers,
			}); err != nil {
				return fmt.Errorf("critpath %v: %w", scheme, err)
			}
			a, err := critpath.Analyze(tr.Spans(), rec.Report())
			if err != nil {
				return fmt.Errorf("critpath %v: %w", scheme, err)
			}
			if err := asciiplot.CritPathChart(os.Stdout, a); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	})
	run("ablation", func() error {
		n, d := 4000, 6
		if *full {
			n, d = 20000, 8
		}
		rows, err := experiments.Ablations(ctx, sc, n, d)
		if err != nil {
			return err
		}
		experiments.WriteAblations(os.Stdout, rows,
			fmt.Sprintf("Ablations (N=%d, d=%d): combiner, pruning, kernels, random baseline", n, d))
		return saveJSON("ablations", rows)
	})

	fmt.Printf("total wall clock: %s\n", time.Since(start).Round(time.Millisecond))
}

func methodNames() []string {
	names := make([]string, len(experiments.Methods))
	for i, m := range experiments.Methods {
		names[i] = m.String()
	}
	return names
}

func plotFigure5(rows []experiments.Figure5Row, title string) error {
	xs := make([]string, len(rows))
	series := make([][]float64, len(experiments.Methods))
	for si := range series {
		series[si] = make([]float64, len(rows))
	}
	for i, r := range rows {
		xs[i] = "d=" + strconv.Itoa(r.Dim)
		for si, m := range experiments.Methods {
			series[si][i] = r.Times[m].Seconds() * 1000
		}
	}
	return asciiplot.Lines(os.Stdout, title+" [ms]", xs, series, methodNames(),
		func(v float64) string { return fmt.Sprintf("%.3gms", v) })
}

func plotFigure6(rows []experiments.Figure6Row, title string) error {
	labels := make([]string, len(rows))
	segs := make([][]float64, len(rows))
	for i, r := range rows {
		labels[i] = strconv.Itoa(r.Servers) + " servers"
		segs[i] = []float64{r.MapTime.Seconds(), r.ReduceTime.Seconds()}
	}
	return asciiplot.StackedBars(os.Stdout, title, labels, segs,
		[]string{"map", "reduce"},
		func(total float64) string { return fmt.Sprintf("%.1fs", total) })
}

func plotFigure7(rows []experiments.Figure7Row, title string) error {
	xs := make([]string, len(rows))
	series := make([][]float64, len(experiments.Methods))
	for si := range series {
		series[si] = make([]float64, len(rows))
	}
	for i, r := range rows {
		xs[i] = "d=" + strconv.Itoa(r.Dim)
		for si, m := range experiments.Methods {
			series[si][i] = r.Optimality[m]
		}
	}
	return asciiplot.Lines(os.Stdout, title, xs, series, methodNames(),
		func(v float64) string { return fmt.Sprintf("%.2f", v) })
}
