// Command skyline computes the skyline of a CSV dataset with a chosen
// MapReduce method, printing the skyline rows (and optionally statistics).
//
// Usage:
//
//	skyline [-method angle|grid|dim|random|seq] [-nodes N] [-header]
//	        [-stats] [-explain] [-flight] [-critpath] [-reducer-budget BYTES]
//	        [-out file.csv] input.csv
//
// The input must be numeric CSV, one service per row, attributes oriented
// so lower is better. With -method seq the skyline is computed with plain
// sequential BNL.
//
// With -explain (MapReduce methods, k=1) the merge is re-run with the
// instrumented per-partition BNL and the plan — candidates, dominance
// tests and global survivors per partition, plus stage timings — is
// printed to stderr, the offline twin of the registry's
// /skyline?explain=1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	skymr "repro"
	"repro/internal/asciiplot"
	"repro/internal/driver"
	"repro/internal/points"
	"repro/internal/telemetry"
	"repro/internal/telemetry/critpath"
)

func main() {
	method := flag.String("method", "angle", "partitioning method: angle, grid, dim, random, or seq")
	nodes := flag.Int("nodes", 4, "modelled cluster nodes (partitions = 2*nodes)")
	header := flag.Bool("header", false, "input has a header row")
	stats := flag.Bool("stats", false, "print execution statistics to stderr")
	out := flag.String("out", "", "write skyline CSV to this file instead of stdout")
	k := flag.Int("k", 1, "compute the k-skyband instead of the skyline (k=1)")
	rep := flag.Int("rep", 0, "reduce the result to this many representative points (0 = all)")
	flight := flag.Bool("flight", false, "print the flight-recorder partition chart to stderr (MapReduce methods only)")
	critPath := flag.Bool("critpath", false, "print the critical-path waterfall and what-if predictions to stderr (MapReduce methods, k=1)")
	explain := flag.Bool("explain", false, "print the per-partition merge plan to stderr (MapReduce methods, k=1)")
	budget := flag.Int64("reducer-budget", 0, "reducer memory bound in bytes; overflow spills and resolves in extra passes (0 = no bound; MapReduce methods, k=1)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: skyline [flags] input.csv")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *method, *nodes, *header, *stats, *out, *k, *rep, *flight, *critPath, *explain, *budget); err != nil {
		fmt.Fprintf(os.Stderr, "skyline: %v\n", err)
		os.Exit(1)
	}
}

func run(path, method string, nodes int, header, stats bool, out string, k, rep int, flight, critPath, explain bool, budget int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	data, cols, err := skymr.ReadCSV(f, header)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("no data rows in %s", path)
	}

	if k < 1 {
		return fmt.Errorf("-k must be >= 1, got %d", k)
	}
	if method == "seq" && budget != 0 {
		return fmt.Errorf("-reducer-budget bounds MapReduce reducers; -method seq has none")
	}
	var sky skymr.Set
	start := time.Now()
	switch {
	case method == "seq" && k == 1:
		sky = skymr.Skyline(data)
		if stats {
			fmt.Fprintf(os.Stderr, "sequential BNL: %d of %d points in %s\n",
				len(sky), len(data), time.Since(start).Round(time.Microsecond))
		}
	case method == "seq":
		var err error
		sky, err = skymr.Skyband(data, k)
		if err != nil {
			return err
		}
		if stats {
			fmt.Fprintf(os.Stderr, "sequential %d-skyband: %d of %d points in %s\n",
				k, len(sky), len(data), time.Since(start).Round(time.Microsecond))
		}
	case k > 1:
		m, err := skymr.ParseMethod(method)
		if err != nil {
			return err
		}
		sky, err = skymr.ComputeSkyband(context.Background(), data, k, skymr.Options{Method: m, Nodes: nodes,
			ReducerBudgetBytes: budget})
		if err != nil {
			return err
		}
		if stats {
			fmt.Fprintf(os.Stderr, "%s %d-skyband: %d of %d points in %s\n",
				m, k, len(sky), len(data), time.Since(start).Round(time.Microsecond))
		}
	default:
		m, err := skymr.ParseMethod(method)
		if err != nil {
			return err
		}
		ctx := context.Background()
		var recorder *telemetry.Recorder
		if flight || critPath {
			recorder = telemetry.NewRecorder(fmt.Sprintf("skyline:%s", m))
			ctx = telemetry.WithRecorder(ctx, recorder)
		}
		var tracer *telemetry.Tracer
		if critPath {
			tracer = telemetry.NewTracer()
			ctx = telemetry.WithTracer(ctx, tracer)
		}
		res, err := skymr.Compute(ctx, data, skymr.Options{Method: m, Nodes: nodes,
			ReducerBudgetBytes: budget})
		if err != nil {
			return err
		}
		sky = res.Skyline
		if flight {
			if err := asciiplot.FlightChart(os.Stderr, recorder.Report()); err != nil {
				return err
			}
		}
		if critPath {
			analysis, err := critpath.Analyze(tracer.Spans(), recorder.Report())
			if err != nil {
				return err
			}
			if err := asciiplot.CritPathChart(os.Stderr, analysis); err != nil {
				return err
			}
		}
		if explain {
			printExplain(os.Stderr, res)
		}
		if stats {
			fmt.Fprintf(os.Stderr,
				"%s: %d of %d points | partitions=%d pruned=%d localSky=%d | map=%s shuffle=%s reduce=%s total=%s | optimality=%.3f\n",
				res.Method, len(sky), len(data), res.Partitions, res.PrunedPartitions,
				res.LocalSkylineTotal(),
				res.Timing.Map.Round(time.Microsecond), res.Timing.Shuffle.Round(time.Microsecond),
				res.Timing.Reduce.Round(time.Microsecond), res.Timing.Total.Round(time.Microsecond),
				res.Optimality())
		}
	}

	if rep > 0 && rep < len(sky) {
		sky = skymr.RepresentativeSkyline(sky, rep)
		if stats {
			fmt.Fprintf(os.Stderr, "reduced to %d representatives\n", len(sky))
		}
	}

	w := os.Stdout
	if out != "" {
		g, err := os.Create(out)
		if err != nil {
			return err
		}
		defer g.Close()
		w = g
	}
	return skymr.WriteCSV(w, sky, cols)
}

// printExplain re-merges the computation's local skylines with the
// instrumented BNL and prints the per-partition plan. The merge result is
// discarded — it equals res.Skyline; only the attribution is wanted.
func printExplain(w io.Writer, res *skymr.Result) {
	local := make(map[int]points.Set, len(res.LocalSkylines))
	for id, s := range res.LocalSkylines {
		local[id] = s
	}
	_, ex := driver.ExplainMerge(fmt.Sprint(res.Method), local)
	fmt.Fprintf(w, "explain: scheme=%s partitions=%d candidates=%d dominance_tests=%d result=%d\n",
		ex.Scheme, ex.PartitionsProbed, ex.Candidates, ex.DominanceTests, ex.ResultSize)
	fmt.Fprintf(w, "  %9s %10s %10s %9s\n", "partition", "candidates", "dom_tests", "survivors")
	for _, pe := range ex.Partitions {
		fmt.Fprintf(w, "  %9d %10d %10d %9d\n", pe.Partition, pe.Candidates, pe.DominanceTests, pe.Survivors)
	}
}
