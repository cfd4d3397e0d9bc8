// Command benchgate measures the flat-kernel speedup over the classic
// points.Set kernels — the oracle every test compares against — and gates
// on it. At the paper's large configuration (n=100k, d=6) it times the
// kernel workloads — one local skyline over the full dataset, and the
// merge of per-chunk partial skylines — classic versus flat. Measurements
// go to BENCH_kernels.json; the gate requires every kernel row to reach
// -min speedup. (End-to-end pipeline numbers are bench/'s job: the
// pipeline has one data path, so there is no second pipeline to compare
// with here.) CI runs -quick (smaller n, fewer repetitions, no gate) to
// catch gross regressions without burning minutes.
//
// Usage:
//
//	benchgate [-suite kernels|serve|spill|critpath|obs] [-n 100000] [-d 6] [-nodes 4] [-runs 3] [-min 1.5] [-quick] [-out BENCH_kernels.json]
//
// The spill suite (-suite spill) measures the out-of-core engine: frame
// codec v2 vs v1 bytes per distribution (gated at 0.7 on correlated and
// clustered), budgeted vs unbudgeted pipeline throughput, and a big-run
// row that streams -n points through driver.ComputeStream under the
// -budget reducer byte budget and certifies the skyline exactly with a
// second streaming pass. Writes BENCH_spill.json.
//
// The critpath suite (-suite critpath) validates the critical-path
// profiler's what-if model against ground truth: it runs the two-job
// skyline pipeline on a 3-worker in-process cluster with one worker
// stalling before every task, takes the trace analyzer's "no-straggler"
// prediction, re-runs straggler-free, and gates on the prediction
// matching the measured clean median within -maxerr (default 25%).
// Writes BENCH_critpath.json; this gate holds in -quick mode too.
//
// The serve suite (-suite serve) measures the registry's HTTP skyline
// read path with per-query attribution on versus off, plus the EXPLAIN
// re-merge, writing BENCH_serve.json and gating attribution overhead at
// 5% of the cached read (the observability acceptance bound).
//
// The obs suite (-suite obs) prices the cluster observability plane:
// the MR-Angle pipeline with a bare metrics registry versus with a
// background time-series sampler and anomaly watchdog running against
// it at aggressive cadence, gated at 5% end-to-end overhead. Writes
// BENCH_obs.json with per-tick micro costs alongside.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/points"
	"repro/internal/qws"
	"repro/internal/skyline"
)

type kernelRow struct {
	Name      string  `json:"name"`
	N         int     `json:"n"`
	D         int     `json:"d"`
	ClassicNS int64   `json:"classic_ns"`
	FlatNS    int64   `json:"flat_ns"`
	Speedup   float64 `json:"speedup"`
}

type report struct {
	Timestamp  string      `json:"timestamp"`
	N          int         `json:"n"`
	D          int         `json:"d"`
	Runs       int         `json:"runs"`
	Quick      bool        `json:"quick"`
	Kernels    []kernelRow `json:"kernels"`
	MinSpeedup float64     `json:"min_speedup"`
	Gated      bool        `json:"gated"`
	Pass       bool        `json:"pass"`
}

// best returns the fastest of runs invocations of f — minimum, not mean,
// because scheduling noise only ever adds time. An optional prep function
// runs before each invocation, outside the timed region.
func best(runs int, f func(), prep ...func()) int64 {
	var min int64 = 1<<63 - 1
	for i := 0; i < runs; i++ {
		for _, p := range prep {
			p()
		}
		start := time.Now()
		f()
		if el := time.Since(start).Nanoseconds(); el < min {
			min = el
		}
	}
	return min
}

func row(name string, n, d, runs int, classic, flat func()) kernelRow {
	// Interleaving would be fairer under thermal drift, but best-of-runs
	// with a warmup pass each is stable enough at these durations.
	c := best(runs, classic)
	f := best(runs, flat)
	return kernelRow{Name: name, N: n, D: d, ClassicNS: c, FlatNS: f,
		Speedup: float64(c) / float64(f)}
}

func main() {
	n := flag.Int("n", 100000, "dataset cardinality")
	d := flag.Int("d", 6, "dataset dimensionality")
	nodes := flag.Int("nodes", 4, "cluster nodes modelled by the spill and obs suites")
	runs := flag.Int("runs", 3, "repetitions per configuration (best is kept)")
	min := flag.Float64("min", 1.5, "minimum acceptable kernel-row speedup (flat over classic)")
	quick := flag.Bool("quick", false, "CI mode: n=20000, 2 runs, report only (no gate)")
	suite := flag.String("suite", "kernels", "which suite to run: kernels, serve, spill, critpath or obs")
	budget := flag.Int64("budget", 1<<30, "reducer byte budget for the spill suite")
	maxErr := flag.Float64("maxerr", 0.25, "maximum relative error of the critpath suite's no-straggler prediction")
	out := flag.String("out", "", "report path (default BENCH_<suite>.json)")
	flag.Parse()

	if *out == "" {
		switch *suite {
		case "serve":
			*out = "BENCH_serve.json"
		case "spill":
			*out = "BENCH_spill.json"
		case "critpath":
			*out = "BENCH_critpath.json"
		case "obs":
			*out = "BENCH_obs.json"
		default:
			*out = "BENCH_kernels.json"
		}
	}
	if *suite == "obs" {
		// The obs suite owns its own quick scaling, like spill/critpath.
		obsSuite(*n, *d, *nodes, *runs, *quick, *out)
		return
	}
	if *suite == "serve" {
		serveSuite(*n, *d, *runs, *quick, *out)
		return
	}
	if *suite == "critpath" {
		// The critpath suite owns its own quick scaling and stays gated
		// in -quick mode: the injected stall dominates the makespan, so
		// the prediction check is robust at any dataset size.
		critpathSuite(*n, *d, *runs, *maxErr, *quick, *out)
		return
	}
	if *suite == "spill" {
		// The spill suite owns its own quick scaling (-n is the big-run
		// cardinality, never rewritten to the kernels-suite default).
		spillSuite(*n, *d, *nodes, *runs, *budget, *quick, *out)
		return
	}
	if *quick {
		*n, *runs = 20000, 2
	}
	if *suite != "kernels" {
		fmt.Fprintf(os.Stderr, "benchgate: unknown suite %q (want kernels, serve, spill, critpath or obs)\n", *suite)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchgate: n=%d d=%d runs=%d\n", *n, *d, *runs)
	data := qws.Dataset(2012, *n, *d)
	ctx := context.Background()

	rep := report{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		N:          *n,
		D:          *d,
		Runs:       *runs,
		Quick:      *quick,
		MinSpeedup: *min,
		Gated:      !*quick,
	}

	// Kernel rows at the full configuration: the partitioning job's reducer
	// workload (one local skyline over the dataset) and the merging job's
	// workload (fold of per-chunk partial skylines).
	kn := *n
	kdata := data[:kn]
	rep.Kernels = append(rep.Kernels, row("local_skyline", kn, *d, *runs,
		func() { skyline.BNL(kdata) },
		func() { skyline.FlatBNL(kdata) }))

	chunks := 16
	var partials []points.Set
	for i := 0; i < chunks; i++ {
		lo, hi := i*kn/chunks, (i+1)*kn/chunks
		partials = append(partials, skyline.FlatBNL(kdata[lo:hi]))
	}
	rep.Kernels = append(rep.Kernels, row("merge_filter", kn, *d, *runs,
		func() {
			var union points.Set
			for _, p := range partials {
				union = append(union, p...)
			}
			skyline.BNL(union)
		},
		func() { skyline.MergeSkylines(ctx, partials, 0) }))

	rep.Pass = true
	if !*quick {
		for _, r := range rep.Kernels {
			if r.Speedup < *min {
				rep.Pass = false
			}
		}
	}
	for _, r := range rep.Kernels {
		fmt.Fprintf(os.Stderr, "  %-18s n=%-7d d=%d classic=%s flat=%s speedup=%.2fx\n",
			r.Name, r.N, r.D, time.Duration(r.ClassicNS), time.Duration(r.FlatNS), r.Speedup)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchgate: wrote %s\n", *out)
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL — a kernel row fell below the minimum %.2fx speedup\n", *min)
		os.Exit(1)
	}
}
