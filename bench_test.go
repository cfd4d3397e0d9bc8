// Benchmarks regenerating every figure of the paper's evaluation section.
// Each BenchmarkFigure* / BenchmarkTable* times one entry of the
// internal/experiments registry at quick scale; the printed rows come from
// `go run ./cmd/skybench -run <name>` (-scale full for the paper's
// 100,000-service scale).
package skymr

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/qws"
	"repro/internal/skyline"
	"repro/internal/telemetry"
	"repro/internal/telemetry/debugserver"
	"repro/internal/telemetry/timeseries"
)

const (
	benchSmallN = 1000  // the paper's small cardinality
	benchLargeN = 20000 // scaled-down large cardinality
	benchNodes  = 4
)

// benchExperiment runs one entry of the experiment registry at quick scale
// per iteration; a row past its bound fails the benchmark.
func benchExperiment(b *testing.B, name string) {
	exps, err := experiments.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := experiments.ScaleFor("quick")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := exps[0].Run(context.Background(), sc)
		if err != nil || len(rows) == 0 {
			b.Fatalf("%s: %d rows, %v", name, len(rows), err)
		}
		for _, r := range rows {
			if r.Failed() {
				b.Errorf("%s: %s = %g is past its bound %g", name, r.Name, r.Value, *r.Bound)
			}
		}
	}
}

// BenchmarkFigure5a: processing time vs dimension at the small N (paper
// Fig. 5(a): MR-Grid 6–16% and MR-Dim 18–45% slower than MR-Angle).
func BenchmarkFigure5a(b *testing.B) { benchExperiment(b, "5a") }

// BenchmarkFigure5b: processing time vs dimension at the large N (paper
// Fig. 5(b): MR-Angle up to 1.7× faster than MR-Grid and 2.3× than MR-Dim
// at d = 10).
func BenchmarkFigure5b(b *testing.B) { benchExperiment(b, "5b") }

// BenchmarkFigure6: Map/Reduce breakdown vs server count for MR-Angle (paper
// Fig. 6: sub-linear speedup that saturates past ~24 servers). The workload
// is measured from real runs; the per-server-count scheduling is the
// cluster simulator.
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "6") }

// BenchmarkFigure7a: local skyline optimality vs dimension at the small N
// (paper Fig. 7(a): MR-Angle peaks at 0.61 and beats both baselines).
func BenchmarkFigure7a(b *testing.B) { benchExperiment(b, "7a") }

// BenchmarkFigure7b: same at the large N (paper Fig. 7(b): the gap widens).
func BenchmarkFigure7b(b *testing.B) { benchExperiment(b, "7b") }

// BenchmarkTheorems12: the Section IV dominance-ability computation —
// closed forms plus the Monte-Carlo verification sweep.
func BenchmarkTheorems12(b *testing.B) { benchExperiment(b, "thm") }

// BenchmarkTableAblations: the ablation table (combiner, pruning, kernels,
// random baseline).
func BenchmarkTableAblations(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkTableSensitivity: the distribution-sensitivity table
// (independent / correlated / anticorrelated / clustered × methods).
func BenchmarkTableSensitivity(b *testing.B) { benchExperiment(b, "sensitivity") }

// BenchmarkTablePartitionCount: the partitions-per-node study around the
// paper's 2× rule.
func BenchmarkTablePartitionCount(b *testing.B) { benchExperiment(b, "partitions") }

// BenchmarkEq5Optimality isolates the metric itself (Eq. 5) at scale.
func BenchmarkEq5Optimality(b *testing.B) {
	data := qws.Dataset(2012, benchLargeN, 6)
	res, err := Compute(context.Background(), data, Options{Method: Angle, Nodes: benchNodes})
	if err != nil {
		b.Fatal(err)
	}
	local := make(map[int]Set, len(res.LocalSkylines))
	for id, s := range res.LocalSkylines {
		local[id] = s
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		metrics.LocalSkylineOptimality(local, res.Skyline)
	}
}

// BenchmarkSkyline pins the telemetry layer's hot-path cost: the same
// MR-Angle computation with telemetry absent (the library default), with
// a metrics registry attached, and with span tracing on. The off variant
// is the regression gate.
func BenchmarkSkyline(b *testing.B) {
	data := qws.Generate(2012, benchSmallN, 4)
	run := func(b *testing.B, opts driver.Options, ctx context.Context) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sky, _, err := driver.Compute(ctx, data, opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(sky) == 0 {
				b.Fatal("empty skyline")
			}
		}
	}
	base := driver.Options{Scheme: partition.Angular, Nodes: benchNodes}
	b.Run("telemetry=off", func(b *testing.B) {
		run(b, base, context.Background())
	})
	b.Run("telemetry=metrics", func(b *testing.B) {
		opts := base
		opts.Metrics = telemetry.NewRegistry()
		run(b, opts, context.Background())
	})
	b.Run("telemetry=metrics+trace", func(b *testing.B) {
		opts := base
		opts.Metrics = telemetry.NewRegistry()
		tr := telemetry.NewTracer()
		run(b, opts, telemetry.WithTracer(context.Background(), tr))
	})
	// events=off vs events=on is the live-operations regression gate:
	// the event log hears only job/phase/task/spill boundaries — never
	// per-record work — so the instrumented run must stay within noise
	// (< 2%) of the uninstrumented one.
	b.Run("events=off", func(b *testing.B) {
		run(b, base, context.Background())
	})
	// The ring wraps during the run (as any long-lived process's does),
	// so the split measures steady-state recycling, not cold fill.
	b.Run("events=on", func(b *testing.B) {
		log := telemetry.NewEventLog(256)
		run(b, base, telemetry.WithEventLog(context.Background(), log))
	})
	// sampling=off vs sampling=on is the observability-plane regression
	// gate: the debug plane's clock, sampling the registry and evaluating
	// a watchdog rule every 10ms, must not slow the computation itself — the
	// sample path reads atomics and writes ring slots, never touching the
	// compute goroutines. The obs experiment (cmd/skybench -run obs) gates ≤1.05×.
	b.Run("sampling=off", func(b *testing.B) {
		opts := base
		opts.Metrics = telemetry.NewRegistry()
		run(b, opts, context.Background())
	})
	b.Run("sampling=on", func(b *testing.B) {
		opts := base
		reg := telemetry.NewRegistry()
		opts.Metrics = reg
		plane, err := debugserver.Start("", debugserver.Sources{
			Metrics:  reg,
			Rules:    []timeseries.Rule{timeseries.RateAboveRule("gc-pause-spike", "process_gc_pause_seconds_total", 0.05, time.Second)},
			Interval: 10 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer plane.Close(nil)
		run(b, opts, context.Background())
	})
}

// benchKernelDims spans a specialized dimension (2, 6) and the generic
// fallback (10) for the flat-kernel micro-benchmarks.
var benchKernelDims = []int{2, 6, 10}

// benchRows draws n quantized random rows of dimension d (ties common,
// like real QoS data after discretization).
func benchRows(seed int64, n, d int) []points.Point {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]points.Point, n)
	for i := range rows {
		p := make(points.Point, d)
		for j := range p {
			p[j] = float64(rng.Intn(64))
		}
		rows[i] = p
	}
	return rows
}

// BenchmarkDominance isolates the single pairwise test of the classic
// kernels: the full BNL window probe (dominated? strictly-dominates? — up to
// three generic scans, exactly the sequence in skyline.BNL's inner loop) at
// 1024 rows, where everything sits in L1. The flat kernels have no pairwise
// function to time beside it — their relation is inlined in the window's
// scan — so their side of the comparison is BenchmarkLocalSkyline.
func BenchmarkDominance(b *testing.B) {
	for _, d := range benchKernelDims {
		rows := benchRows(2012, 1024, d)
		b.Run(fmt.Sprintf("d=%d/classic", d), func(b *testing.B) {
			sink := false
			for i := 0; i < b.N; i++ {
				p, q := rows[i%1024], rows[(i*7+1)%1024]
				sink = (points.DominatesOrEqual(q, p) && !q.Equal(p)) || points.Dominates(p, q)
			}
			_ = sink
		})
	}
}

// BenchmarkLocalSkyline is the partitioning job's reducer workload: one
// full local-skyline computation, classic BNL versus the flat block BNL.
func BenchmarkLocalSkyline(b *testing.B) {
	for _, d := range benchKernelDims {
		data := qws.Dataset(2012, benchLargeN, d)
		b.Run(fmt.Sprintf("d=%d/classic", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(skyline.BNL(data)) == 0 {
					b.Fatal("empty skyline")
				}
			}
		})
		b.Run(fmt.Sprintf("d=%d/flat", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(skyline.FlatBNL(data)) == 0 {
					b.Fatal("empty skyline")
				}
			}
		})
	}
}

// BenchmarkMergeTree is the merging job's workload: merge 16 partial
// skylines into the global one, sequential concat+BNL versus
// skyline.MergeSkylines, which lays the partials out as one skyline.Filter
// and keeps the rows no other row dominates. (The name is from when the
// merge was a tournament tree; the kernels experiment's merge_filter row
// times the same pair.)
func BenchmarkMergeTree(b *testing.B) {
	const chunks = 16
	for _, d := range benchKernelDims {
		data := qws.Dataset(2012, benchLargeN, d)
		partials := make([]points.Set, 0, chunks)
		step := (len(data) + chunks - 1) / chunks
		for lo := 0; lo < len(data); lo += step {
			hi := lo + step
			if hi > len(data) {
				hi = len(data)
			}
			partials = append(partials, skyline.FlatBNL(data[lo:hi]))
		}
		b.Run(fmt.Sprintf("d=%d/classic", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var union points.Set
				for _, p := range partials {
					union = append(union, p...)
				}
				if len(skyline.BNL(union)) == 0 {
					b.Fatal("empty skyline")
				}
			}
		})
		b.Run(fmt.Sprintf("d=%d/flat", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(skyline.MergeSkylines(context.Background(), partials, 0)) == 0 {
					b.Fatal("empty skyline")
				}
			}
		})
	}
}
