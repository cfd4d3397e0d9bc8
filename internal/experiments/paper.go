package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/asciiplot"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/driver"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/qws"
	"repro/internal/rtree"
	"repro/internal/skyline"
	"repro/internal/telemetry"
	"repro/internal/telemetry/critpath"
)

// Methods are the paper's three algorithms in presentation order.
var Methods = partition.Schemes()

// cell is one run of Algorithm 1: the fastest of its runs, with that
// run's output and statistics.
type cell struct {
	time   time.Duration
	global points.Set
	stats  *driver.Stats
}

// measure runs Algorithm 1 over data runs times. With a nil edit that is
// the product, driver.Compute; otherwise Job 1 — driver.PartitionJob over
// part, fitted from opts when nil — is edited and run through
// driver.TwoJobs (see driver/frame.go, "Ablations are job edits"). That
// run is handed no pruning mask, which is all "pruning off" takes.
func measure(ctx context.Context, data points.Set, opts driver.Options, runs int, part partition.Partitioner, edit func(*mapreduce.FrameJob)) (cell, error) {
	c := cell{time: math.MaxInt64}
	for r := 0; r < max(runs, 1); r++ {
		global, stats, err := edited(ctx, data, opts, part, edit)
		if err != nil {
			return c, err
		}
		if stats.Timing.Total < c.time {
			c = cell{stats.Timing.Total, global, stats}
		}
	}
	return c, nil
}

// edited is driver.Compute with Job 1 edited by edit, or driver.Compute
// itself when edit is nil.
func edited(ctx context.Context, data points.Set, opts driver.Options, part partition.Partitioner, edit func(*mapreduce.FrameJob)) (points.Set, *driver.Stats, error) {
	if edit == nil {
		return driver.Compute(ctx, data, opts)
	}
	if part == nil {
		var err error
		if part, err = partition.New(opts.Scheme, data, opts.Partitions); err != nil {
			return nil, nil, err
		}
	}
	job := driver.PartitionJob(part, nil, data.Dim(), 0, opts)
	edit(&job)
	exec := driver.InProcess(mapreduce.SetRows(data), job, data.Dim(), 0, opts)
	return driver.TwoJobs(ctx, exec, data.Dim(), part, nil, nil, opts)
}

func (c cell) optimality() float64 {
	return metrics.LocalSkylineOptimality(c.stats.LocalSkylines, c.global)
}

// add reports the cell's counters on the table line named line.
func (c cell) add(r *rows, line string) {
	r.add(line+"/time", c.time.Seconds(), "s")
	r.add(line+"/shuffle", float64(c.stats.Counters["mr.shuffle.records"]), "records")
	r.add(line+"/localsky", float64(c.stats.LocalSkylineTotal()), "points")
	r.add(line+"/pruned", float64(c.stats.PrunedPartitions), "cells")
	r.add(line+"/global", float64(len(c.global)), "points")
	r.add(line+"/opt", c.optimality(), "ratio")
}

func smallN(sc Scale) int { return sc.SmallN }
func largeN(sc Scale) int { return sc.LargeN }

// figure is Fig. 5 (time, the best of Scale.Runs) or Fig. 7 (Eq. (5)
// optimality, one run): every method over the dimension sweep at the
// cardinality n picks. Fig. 7 checks the paper's claim as two gates:
// MR-Angle's optimality, averaged over d, is above MR-Grid's and MR-Dim's.
func figure(n func(Scale) int, fig7 bool) func(context.Context, Scale) ([]Row, error) {
	return func(ctx context.Context, sc Scale) ([]Row, error) {
		runs := sc.Runs
		if fig7 {
			runs = 1
		}
		var r rows
		mean := map[partition.Scheme]float64{}
		for _, d := range sc.Dims {
			data := qws.Dataset(sc.Seed, n(sc), d)
			for _, m := range Methods {
				c, err := measure(ctx, data, sc.options(m), runs, nil, nil)
				if err != nil {
					return nil, fmt.Errorf("n=%d d=%d %v: %w", n(sc), d, m, err)
				}
				c.add(&r, fmt.Sprintf("d=%d/%v", d, m))
				mean[m] += c.optimality() / float64(len(sc.Dims))
			}
		}
		if fig7 {
			angle := mean[partition.Angular]
			r.gate(true, "mean/angle_minus_grid", angle-mean[partition.Grid], "ratio", "higher", 0)
			r.gate(true, "mean/angle_minus_dim", angle-mean[partition.Dimensional], "ratio", "higher", 0)
		}
		return r, nil
	}
}

// figure6 is the scalability experiment: MR-Angle on the large dataset at
// the top dimension, partitions = 2 × servers. The workload (partition
// sizes, local skyline sizes, global size) is measured by really running
// the driver; the wall-clock split is the cluster simulator's.
func figure6(ctx context.Context, sc Scale) ([]Row, error) {
	data := qws.Dataset(sc.Seed, sc.LargeN, sc.Dims[len(sc.Dims)-1])
	bds, err := cluster.Sweep(sc.Servers, cluster.DefaultCostModel(), func(servers int) (cluster.Workload, error) {
		return WorkloadFor(ctx, data, partition.Angular, servers, sc.Workers)
	})
	if err != nil {
		return nil, err
	}
	var r rows
	for _, b := range bds {
		line := fmt.Sprintf("servers=%d", b.Servers)
		r.add(line+"/map", b.MapTime.Seconds(), "s")
		r.add(line+"/reduce", b.ReduceTime.Seconds(), "s")
	}
	return r, nil
}

// WorkloadFor runs the real pipeline once and extracts the cluster
// simulator's workload for the given server count (partitions = 2 ×
// servers, the paper's rule).
func WorkloadFor(ctx context.Context, data points.Set, scheme partition.Scheme, servers, workers int) (cluster.Workload, error) {
	c, err := measure(ctx, data, driver.Options{Scheme: scheme, Nodes: servers, Workers: workers}, 1, nil, nil)
	if err != nil {
		return cluster.Workload{}, err
	}
	sizes := make([]int, c.stats.Partitions)
	skies := make([]int, c.stats.Partitions)
	copy(sizes, c.stats.PartitionCounts)
	for id, ls := range c.stats.LocalSkylines {
		skies[id] = len(ls)
	}
	return cluster.Workload{
		Records:           len(data),
		Dim:               data.Dim(),
		PartitionSizes:    sizes,
		LocalSkylineSizes: skies,
		GlobalSkylineSize: len(c.global),
	}, nil
}

// theorems sweeps service positions along y = x/4 (inside the bottom
// sector) with the analytic and Monte-Carlo dominance abilities (L = 1).
// Theorem 2 is the gap gate — D_angle − D_grid at or above its closed-form
// lower bound — and the Monte-Carlo draws must land within 0.02 of the
// closed forms. The sweep stops below x = L because the grid closed form
// (L−x)(L−y)/L² presumes the service sits in the bottom-left cell, the
// paper's "it belongs to the partition close to the axes as the most case".
func theorems(_ context.Context, sc Scale) ([]Row, error) {
	const l = 1.0
	var r rows
	for _, x := range []float64{0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95} {
		y := x / 4
		line := fmt.Sprintf("x=%.2f", x)
		da, dg := metrics.DominanceAbilityAngle(x, y, l), metrics.DominanceAbilityGrid(x, y, l)
		mca := metrics.MonteCarloDominance(x, y, l, true, sc.Samples, sc.Seed)
		mcg := metrics.MonteCarloDominance(x, y, l, false, sc.Samples, sc.Seed+1)
		r.add(line+"/D_angle", da, "ratio")
		r.add(line+"/D_grid", dg, "ratio")
		r.add(line+"/MC_angle", mca, "ratio")
		r.add(line+"/MC_grid", mcg, "ratio")
		bound := metrics.DominanceGapLowerBound(x, l)
		r.add(line+"/bound", bound, "ratio")
		r.gate(true, line+"/gap", da-dg, "ratio", "higher", bound-1e-9)
		r.gate(true, line+"/mc_angle_err", math.Abs(da-mca), "ratio", "lower", 0.02)
		r.gate(true, line+"/mc_grid_err", math.Abs(dg-mcg), "ratio", "lower", 0.02)
	}
	return r, nil
}

// bbsKernel adapts the R-tree BBS algorithm to the sequential-kernel
// signature: build an STR-packed tree per invocation, then run the
// branch-and-bound traversal.
func bbsKernel(s points.Set) points.Set {
	if len(s) == 0 {
		return nil
	}
	tr, err := rtree.New(s, rtree.DefaultFanout)
	if err != nil {
		// Kernel signatures are infallible; an unbuildable tree means
		// invalid points, which Job 1's Assign rejected before routing.
		panic("experiments: bbs kernel: " + err.Error())
	}
	return tr.Skyline(nil)
}

// ablationRow is one configuration of the design-choice studies beyond
// the paper's figures. A nil edit is the product, driver.Compute over
// scheme; the others edit Job 1, over part when it is set.
type ablationRow struct {
	name   string
	scheme partition.Scheme
	part   partition.Partitioner
	edit   func(*mapreduce.FrameJob)
}

// asIs edits nothing: Job 1 as it is, unpruned.
func asIs(*mapreduce.FrameJob) {}

// ablationRows lists the configurations; the first is the product default.
func ablationRows(data points.Set, sc Scale) ([]ablationRow, error) {
	// The angular+radial hybrid: MR-Angle's sectors (the same sampled
	// fit) further cut into 4 radial shells — measures the cost of
	// partitions that do NOT span the quality gradient (the paper's core
	// argument for pure angles).
	hybrid, err := partition.FitAngularRadial(data, 2*sc.Nodes, 4)
	if err != nil {
		return nil, fmt.Errorf("fitting hybrid: %w", err)
	}
	return []ablationRow{
		{"MR-Angle (BNL, combiner)", partition.Angular, nil, nil},
		{"MR-Angle+RadialShells", partition.Angular, hybrid, asIs},
		// The paper's §II-B "middle process" turned off: raw partition
		// contents cross the shuffle.
		{"MR-Angle no combiner", partition.Angular, nil, func(job *mapreduce.FrameJob) { job.Accumulators = nil }},
		{"MR-Angle SFS kernel", partition.Angular, nil, driver.WithKernel(skyline.SFS)},
		{"MR-Angle D&C kernel", partition.Angular, nil, driver.WithKernel(skyline.DivideConquer)},
		{"MR-Angle BBS kernel", partition.Angular, nil, driver.WithKernel(bbsKernel)},
		{"MR-Grid (pruning on)", partition.Grid, nil, nil},
		{"MR-Grid pruning off", partition.Grid, nil, asIs},
		{"MR-Random baseline", partition.Random, nil, nil},
		{"MR-Dim", partition.Dimensional, nil, nil},
	}, nil
}

// ablation measures, on one QWS-like dataset, the local-skyline combiner,
// grid cell pruning, the sequential kernel, the random-partitioning
// baseline and the angular+radial hybrid. Its identities are gates: every
// row's global skyline is the sequential SFS skyline as a multiset; the
// rows that change only how Job 1 computes a partition's skyline (no
// combiner, another kernel) reach the default row's local skylines — their
// total, and Eq. (5)'s survivors per partition; and the combiner cuts the
// shuffle.
func ablation(ctx context.Context, sc Scale) ([]Row, error) {
	data := qws.Dataset(sc.Seed, sc.TableN, sc.TableD[1])
	cfgs, err := ablationRows(data, sc)
	if err != nil {
		return nil, err
	}
	want := skyline.SFS(data)
	var r rows
	var base cell
	var globalOff, localOff, combinerCut float64
	for i, a := range cfgs {
		opts := sc.options(a.scheme)
		opts.Partitions = 2 * sc.Nodes
		c, err := measure(ctx, data, opts, 1, a.part, a.edit)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", a.name, err)
		}
		c.add(&r, a.name)
		if !sameMultiset(c.global, want) {
			globalOff++
		}
		switch {
		case i == 0:
			base = c
		case a.scheme == partition.Angular && a.part == nil:
			survivors := metrics.GlobalSurvivors(c.stats.LocalSkylines, c.global)
			if c.stats.LocalSkylineTotal() != base.stats.LocalSkylineTotal() ||
				!reflect.DeepEqual(survivors, metrics.GlobalSurvivors(base.stats.LocalSkylines, base.global)) {
				localOff++
			}
		}
		if a.name == "MR-Angle no combiner" {
			combinerCut = float64(c.stats.Counters["mr.shuffle.records"] - base.stats.Counters["mr.shuffle.records"])
		}
	}
	r.gate(true, "identities/global_mismatches", globalOff, "rows", "lower", 0)
	r.gate(true, "identities/local_mismatches", localOff, "rows", "lower", 0)
	r.gate(true, "identities/combiner_cut", combinerCut, "records", "higher", 1)
	return r, nil
}

// sameMultiset compares two point sets as multisets of coordinates.
func sameMultiset(a, b points.Set) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int, len(a))
	for _, p := range a {
		count[points.Key(p)]++
	}
	for _, p := range b {
		if count[points.Key(p)]--; count[points.Key(p)] < 0 {
			return false
		}
	}
	return true
}

// sensitivity runs every method over every benchmark distribution — the
// standard skyline-literature sweep that the paper's QWS-only evaluation
// leaves implicit.
func sensitivity(ctx context.Context, sc Scale) ([]Row, error) {
	var r rows
	for _, kind := range []dataset.Kind{dataset.KindIndependent, dataset.KindCorrelated, dataset.KindAnticorrelated, dataset.KindClustered} {
		data := dataset.Generate(kind, sc.Seed, sc.TableN, sc.TableD[0])
		for _, m := range Methods {
			c, err := measure(ctx, data, sc.options(m), 1, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("%v/%v: %w", kind, m, err)
			}
			c.add(&r, fmt.Sprintf("%v/%v", kind, m))
		}
	}
	return r, nil
}

// partitionCount sweeps the partitions-per-node multiplier: the paper
// fixes partitions = 2 × nodes "empirically"; the sweep shows the
// trade-off it balances (parallel slack against shuffle/merge overhead
// and per-partition skyline dilution).
func partitionCount(ctx context.Context, sc Scale) ([]Row, error) {
	data := qws.Dataset(sc.Seed, sc.TableN, sc.TableD[1])
	var r rows
	for _, mult := range []int{1, 2, 4, 8} {
		for _, m := range Methods {
			opts := sc.options(m)
			opts.Partitions = mult * sc.Nodes
			c, err := measure(ctx, data, opts, 1, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("x%d %v: %w", mult, m, err)
			}
			line := fmt.Sprintf("x%d/%v", mult, m)
			r.add(line+"/partitions", float64(c.stats.Partitions), "partitions")
			c.add(&r, line)
		}
	}
	return r, nil
}

// flight records one run per method: the flight recorder's live
// per-partition view of Figs. 7/8, charted when Scale.Charts is set.
func flight(ctx context.Context, sc Scale) ([]Row, error) {
	data := qws.Dataset(sc.Seed, sc.TableN, sc.TableD[0])
	var r rows
	for _, m := range Methods {
		rec := telemetry.NewRecorder(fmt.Sprintf("skyline:%s", m))
		if _, _, err := driver.Compute(telemetry.WithRecorder(ctx, rec), data, sc.options(m)); err != nil {
			return nil, fmt.Errorf("%v: %w", m, err)
		}
		rep := rec.Report()
		r.add(m.String()+"/partitions", float64(len(rep.Partitions)), "partitions")
		r.add(m.String()+"/imbalance", rep.Skew.Imbalance, "ratio")
		r.add(m.String()+"/gini", rep.Skew.Gini, "ratio")
		r.add(m.String()+"/opt", rep.Optimality, "ratio")
		if sc.Charts != nil {
			if err := asciiplot.FlightChart(sc.Charts, rep); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// critpathChart traces one run per method: where the makespan went, by
// phase, with the what-if predictions — the waterfall charted when
// Scale.Charts is set.
func critpathChart(ctx context.Context, sc Scale) ([]Row, error) {
	data := qws.Dataset(sc.Seed, sc.TableN, sc.TableD[0])
	var r rows
	for _, m := range Methods {
		rec := telemetry.NewRecorder(fmt.Sprintf("skyline:%s", m))
		tr := telemetry.NewTracer()
		if _, _, err := driver.Compute(telemetry.WithRecorder(telemetry.WithTracer(ctx, tr), rec), data, sc.options(m)); err != nil {
			return nil, fmt.Errorf("%v: %w", m, err)
		}
		a, err := critpath.Analyze(tr.Spans(), rec.Report())
		if err != nil {
			return nil, fmt.Errorf("%v: %w", m, err)
		}
		r.add(m.String()+"/makespan_s", a.MakespanSeconds, "s")
		r.add(m.String()+"/segments", float64(len(a.CriticalPath)), "count")
		r.add(m.String()+"/bottleneck_share", a.Bottleneck().Share, "ratio")
		if sc.Charts != nil {
			if err := asciiplot.CritPathChart(sc.Charts, a); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}
