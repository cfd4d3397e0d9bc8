// Package driver composes the MapReduce engine, the partitioners and the
// sequential skyline kernels into the paper's three algorithms — MR-Dim,
// MR-Grid and MR-Angle (Algorithm 1) — as the two-job pipeline:
//
//	Job 1 (Partitioning Job): map each point to its partition id; a
//	combiner and the reducer run the BNL kernel per partition, producing
//	local skylines.
//
//	Job 2 (Merging Job): a map-only job over the local skyline points,
//	sorted by coordinate sum and cut into groups; task g kills its group
//	with the rows at or below the group's sums, and the survivors are the
//	global skyline. A reducer budget only sizes the groups.
//
// There is one data path: points travel as rows into per-partition
// accumulators and between phases as packed frames (see frame.go, which
// defines the two jobs and their sequence once, for this package's executor
// and for the cluster's in package skyjob). The driver also implements MR-Grid's cell-level
// dominance pruning and collects the per-partition local skylines needed
// by the paper's local skyline optimality metric (Eq. 5).
package driver

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/telemetry"
)

// Options configures one MapReduce skyline computation.
type Options struct {
	// Scheme selects the partitioning method (MR-Dim / MR-Grid /
	// MR-Angle / MR-Random).
	Scheme partition.Scheme
	// Nodes is the number of cluster nodes being modelled. Following the
	// paper, the partition count defaults to 2 × Nodes. Defaults to 4.
	Nodes int
	// Partitions overrides the 2×Nodes default when > 0.
	Partitions int
	// Workers is the engine's worker-goroutine count; defaults to Nodes.
	// It does not bound MR-Grid's fit, whose one pass over every row runs
	// on GOMAXPROCS goroutines (partition.Fit).
	Workers int
	// SpillDir names the existing directory where budgeted folds (see
	// ReducerBudgetBytes) write their overflow files; empty is the OS temp
	// directory. It is the only disk a job touches: the shuffle stays in
	// memory, and an unbudgeted job never creates a file.
	SpillDir string
	// Codec selects the wire codec for the framed shuffle: the zero value
	// keeps raw v1 frames, points.FrameAuto enables the bit-packed v2
	// encoding wherever it is smaller.
	Codec points.FrameCodec
	// ReducerBudgetBytes bounds every skyline fold's window: a full window
	// spills and multi-passes, so a fold stays near the budget instead of
	// scaling with its skyline. Job 1's reducers fold under it, and when the
	// local skylines exceed it the merging job's groups are cut to it: each
	// task can lay out and kill its group within the budget, with one piece
	// of the rows at or below its sums streamed past it at a time. Up to
	// Workers tasks run at once, so
	// resident reduce and merge memory is bounded by Workers × budget. 0 is
	// no bound.
	ReducerBudgetBytes int64
	// Metrics, when non-nil, receives skyline-level series (per-partition
	// local skyline sizes, pruned-cell counts) and is passed through to
	// both engine jobs for the mr_* bridge. Nil (the default) records
	// nothing.
	Metrics *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	if o.Partitions <= 0 {
		o.Partitions = 2 * o.Nodes // the paper's empirical setting
	}
	if o.Workers <= 0 {
		o.Workers = o.Nodes
	}
	return o
}

// Stats reports what happened inside one computation.
type Stats struct {
	// Scheme echoes the partitioning method used.
	Scheme partition.Scheme
	// Partitions is the actual partition count after planning.
	Partitions int
	// PartitionCounts is the number of input points per partition.
	PartitionCounts []int
	// PrunedPartitions counts grid cells skipped by dominance pruning.
	PrunedPartitions int
	// LocalSkylines maps partition id → local skyline (Job 1 output).
	LocalSkylines map[int]points.Set
	// PartitionJob and MergeJob are the per-job phase timings; Timing is
	// their sum. The merge is map-only, so MergeJob is all Map.
	PartitionJob, MergeJob, Timing mapreduce.Timing
	// Counters merges every job's framework counters. The merging job
	// combines, shuffles and reduces nothing: mr.combine.*, mr.shuffle.* and
	// mr.reduce.* are Job 1's alone, and mr.output.bytes the merge's.
	Counters map[string]int64
	// ReducerPeakBytes is the largest working set any reduce task reached,
	// or any merge task counted: what a reducer budget is judged
	// against, and what an unbudgeted run says a budget would have to be.
	ReducerPeakBytes int64
	// MergePasses is the largest pass count any reduce fold needed: 1 when
	// every window held its skyline, >1 when one overflowed and multi-passed.
	MergePasses int
	// MergeRounds counts the merge rounds a budget bound — 1 when the local
	// skylines exceeded the budget and the merge's groups were cut to it,
	// 0 when they fit it — MergeGroups the groups the round was cut into,
	// and MergeRoundBytes[i] the candidate volume entering round i.
	MergeRounds     int
	MergeGroups     int
	MergeRoundBytes []int64
	// DominanceTests is how far the process-wide flat-kernel dominance-test
	// counter moved during the computation. Workers in other processes
	// count their own.
	DominanceTests int64
}

// LocalSkylineTotal returns the number of points across all local
// skylines — the volume entering the merge job.
func (s *Stats) LocalSkylineTotal() int {
	n := 0
	for _, ls := range s.LocalSkylines {
		n += len(ls)
	}
	return n
}

// Compute runs the selected MapReduce skyline algorithm over data and
// returns the global skyline plus execution statistics. The input set must
// be non-empty, uniform-dimensional and finite.
func Compute(ctx context.Context, data points.Set, opts Options) (points.Set, *Stats, error) {
	global, stats, _, err := compute(ctx, data, 0, opts)
	return global, stats, err
}

// compute is Compute for the operator band selects (see PartitionJob): the
// skyline, or ComputeSkyband's k-skyband. It also returns the partitioner
// the job ran on, which BuildIndex keeps.
func compute(ctx context.Context, data points.Set, band int, opts Options) (points.Set, *Stats, partition.Partitioner, error) {
	opts = opts.withDefaults()
	ctx, rootSpan := telemetry.StartSpan(ctx, fmt.Sprintf("skyline:%s", opts.Scheme),
		telemetry.A("scheme", fmt.Sprint(opts.Scheme)),
		telemetry.A("points", len(data)))
	defer rootSpan.End()

	// Job 1 reads each row once: the fit reads its sample (MR-Grid's, every
	// row), and the map pass validates every row as it assigns it. A failure
	// of either is reworded by InvalidInput, on that path only. An empty set
	// fails neither, so it is refused here.
	if len(data) == 0 {
		return nil, nil, nil, fmt.Errorf("driver: %w", data.Validate())
	}
	part, err := partition.New(opts.Scheme, data, opts.Partitions)
	if err != nil {
		return nil, nil, nil, InvalidInput("driver", data, err)
	}

	// MR-Grid dominance pruning needs cell occupancy, which is known after
	// assignment; we take a pre-pass over the data (the same O(n) assigns
	// the map phase performs) and hand the mapper a pruned-cell mask so
	// dominated cells are dropped at the source, sparing both the local
	// skyline computation and the shuffle — the paper's §III-B gain. It is
	// a skyline shortcut: the occupied cell that dominates a pruned one
	// proves one dominator of its points, and a band needs k of them.
	var pruned []bool
	var occupancy []int
	if pruner, ok := part.(partition.Pruner); ok && band == 0 {
		occupancy, err = partition.Histogram(part, data)
		if err != nil {
			return nil, nil, nil, InvalidInput("driver", data, err)
		}
		occupied := make([]bool, len(occupancy))
		for id, c := range occupancy {
			occupied[id] = c > 0
		}
		pruned = pruner.Prunable(occupied)
	}
	dim := data.Dim()
	exec := InProcess(mapreduce.SetRows(data), PartitionJob(part, pruned, dim, band, opts), dim, band, opts)
	global, stats, err := TwoJobs(ctx, exec, dim, part, pruned, occupancy, opts)
	if err != nil {
		return nil, nil, nil, InvalidInput("driver", data, err)
	}
	return global, stats, part, nil
}

// InvalidInput is what an entry point over an in-memory set returns for a
// fit or a job that failed with err: the error of points.Set.Validate over
// the set, which names the lowest offending row, under the entry point's
// package prefix when the set is invalid — the fit reads a sample and Job
// 1's tasks reject rows in whatever order they reach them, so neither names
// that row — and err itself when it is not. It reads the whole set, so only
// a failure pays for it.
func InvalidInput(prefix string, data points.Set, err error) error {
	if verr := data.Validate(); verr != nil {
		return fmt.Errorf("%s: %w", prefix, verr)
	}
	return err
}

// feedRecorder is the one writer of the run's flight record (no-op when the
// context carries no recorder): per planned partition its occupancy as
// input load, shuffle bytes, local skyline size and Eq. (5) survivor count
// — computed here, where local and global skylines are both in hand — and
// the run's stragglers, retries and failures (job counters), merge round
// bytes and reducer peak. The rollups are then bridged into the run's metrics
// registry.
func feedRecorder(ctx context.Context, opts Options, stats *Stats, global points.Set, shuffle map[int]mapreduce.PartStat) {
	rec := telemetry.RecorderFrom(ctx)
	if rec == nil {
		return
	}
	run := telemetry.Report{
		Partitions:       make([]telemetry.PartitionRecord, stats.Partitions),
		GlobalSkyline:    len(global),
		Stragglers:       stats.Counters[mapreduce.CounterStragglers],
		TaskRetries:      stats.Counters[mapreduce.CounterMapRetries] + stats.Counters[mapreduce.CounterRedRetries],
		WorkerFailures:   stats.Counters[mapreduce.CounterWorkerFailures],
		MergeRoundBytes:  stats.MergeRoundBytes,
		ReducerPeakBytes: stats.ReducerPeakBytes,
	}
	survivors := metrics.GlobalSurvivors(stats.LocalSkylines, global)
	for id := range run.Partitions {
		run.Partitions[id] = telemetry.PartitionRecord{
			Partition:       id,
			InputRecords:    int64(stats.PartitionCounts[id]),
			ShuffleBytes:    shuffle[id].Bytes,
			LocalSkyline:    len(stats.LocalSkylines[id]),
			GlobalSurvivors: survivors[id],
		}
	}
	rec.RecordRun(run)
	rec.Publish(opts.Metrics)
}

// publishPartitionGauges exports the partition-level shape of a run:
// per-partition local skyline sizes and point counts (the paper's load
// balance picture), plus the pruned-cell total for MR-Grid.
func publishPartitionGauges(reg *telemetry.Registry, stats *Stats) {
	if reg == nil {
		return
	}
	for id, ls := range stats.LocalSkylines {
		reg.Gauge("skyline_partition_local_size",
			telemetry.L("partition", strconv.Itoa(id))).Set(float64(len(ls)))
	}
	for id, n := range stats.PartitionCounts {
		reg.Gauge("skyline_partition_points",
			telemetry.L("partition", strconv.Itoa(id))).Set(float64(n))
	}
	reg.Gauge("skyline_pruned_partitions").Set(float64(stats.PrunedPartitions))
}
