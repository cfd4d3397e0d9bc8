// Package driver composes the MapReduce engine, the partitioners and the
// sequential skyline kernels into the paper's three algorithms — MR-Dim,
// MR-Grid and MR-Angle (Algorithm 1) — as the two-job pipeline:
//
//	Job 1 (Partitioning Job): map each point to its partition key; a
//	combiner and the reducer run the BNL kernel per partition, producing
//	local skylines.
//
//	Job 2 (Merging Job): map every local skyline point to one shared key;
//	a single reduce merges them with BNL into the global skyline.
//
// The driver also implements MR-Grid's cell-level dominance pruning and
// collects the per-partition local skylines needed by the paper's local
// skyline optimality metric (Eq. 5).
package driver

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/skyline"
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
	Workers int
	// Kernel is the sequential skyline algorithm used for local and global
	// skylines. Defaults to BNL, the paper's choice.
	Kernel skyline.Algorithm
	// KernelOverride, when non-nil, replaces Kernel with an arbitrary
	// skyline function (e.g. the R-tree BBS from package rtree, which has
	// no Algorithm enum value because it carries index state).
	KernelOverride skyline.Func
	// ClassicKernel forces the classic points.Set kernels instead of the
	// default flat-memory block kernels (contiguous coordinates,
	// dimension-specialized dominance, parallel merge tree). The two paths
	// produce identical skylines; this is the escape hatch for comparison
	// runs and for exotic inputs. Ignored when KernelOverride is set (an
	// override is always classic-path).
	ClassicKernel bool
	// ClassicShuffle forces the classic per-Pair shuffle (string keys, one
	// Pair per point) instead of the default block-framed shuffle, which
	// moves packed point frames between phases. Implied by ClassicKernel
	// or KernelOverride — frames only exist on the flat block path. Both
	// shuffles produce identical skylines; this is the escape hatch
	// mirroring ClassicKernel.
	ClassicShuffle bool
	// PartitionerOverride, when non-nil, replaces the Scheme-fitted
	// partitioner with a pre-built one (experimental partitioners such as
	// the angular+radial hybrid). Scheme is then only a label.
	PartitionerOverride partition.Partitioner
	// DisableCombiner turns off the in-map local-skyline combiner (the
	// paper's "middle process"), shipping raw partition contents to the
	// reducers — the ablation quantifying the paper's §II-B claim.
	DisableCombiner bool
	// DisableGridPruning turns off MR-Grid's dominated-cell pruning.
	DisableGridPruning bool
	// SpillDir, when set, spills intermediate data to sequence files.
	SpillDir string
	// Codec selects the wire codec for the framed shuffle: the zero value
	// keeps raw v1 frames, points.FrameAuto enables the bit-packed v2
	// encoding wherever it is smaller. Ignored on the classic paths.
	Codec points.FrameCodec
	// ReducerBudgetBytes, when > 0, switches the framed reducers to the
	// memory-budgeted streaming fold: frames are folded one at a time into
	// a bounded skyline window that spills and multi-passes when the local
	// skyline outgrows it, so reduce memory stays near the budget instead
	// of scaling with partition size. 0 keeps the assemble-everything
	// reducers.
	ReducerBudgetBytes int64
	// HierarchicalMerge enables the paper's §II iterative extension: the
	// merge proceeds in rounds of MergeFanIn-way partial merges instead of
	// a single global reduce — the Twister-style iterative MapReduce path
	// for registries whose local skylines are too large for one reducer.
	HierarchicalMerge bool
	// MergeFanIn is the per-round fan-in of the hierarchical merge
	// (default 8, minimum 2).
	MergeFanIn int
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

// flatPath reports whether the options select the flat block kernels.
func (o Options) flatPath() bool {
	return !o.ClassicKernel && o.KernelOverride == nil
}

// kernelFunc resolves the sequential Set-typed kernel: the override when
// given, otherwise the flat or classic implementation of o.Kernel.
func (o Options) kernelFunc() skyline.Func {
	if o.KernelOverride != nil {
		return o.KernelOverride
	}
	if o.ClassicKernel {
		return skyline.ByAlgorithm(o.Kernel)
	}
	return skyline.ByAlgorithmFlat(o.Kernel)
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
	// their sum.
	PartitionJob, MergeJob, Timing mapreduce.Timing
	// Counters merges both jobs' framework counters.
	Counters map[string]int64
	// ReducerPeakBytes is the largest reducer-resident working set any
	// reduce task or merge fold reached (0 when the budgeted streaming
	// path was off).
	ReducerPeakBytes int64
	// MergePasses is the largest BudgetedFold pass count any fold needed
	// (>1 means a skyline overflowed its window and multi-passed).
	MergePasses int
	// MergeRounds counts the rounds of ComputeStream's multi-round merge
	// schedule; MergeRoundBytes[i] is the candidate volume entering round
	// i. Zero/nil when the merge ran as a single job.
	MergeRounds     int
	MergeRoundBytes []int64
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
	opts = opts.withDefaults()
	// The input is validated exactly once: by partition.New, in the same
	// pass that takes the bounds it fits to — or here, when a pre-built
	// partitioner means New never sees the data.
	if opts.PartitionerOverride != nil {
		if err := data.Validate(); err != nil {
			return nil, nil, fmt.Errorf("driver: %w", err)
		}
	}
	ctx, rootSpan := telemetry.StartSpan(ctx, fmt.Sprintf("skyline:%s", opts.Scheme),
		telemetry.A("scheme", fmt.Sprint(opts.Scheme)),
		telemetry.A("points", len(data)))
	defer rootSpan.End()

	part := opts.PartitionerOverride
	if part == nil {
		var err error
		part, err = partition.New(opts.Scheme, data, opts.Partitions)
		if err != nil {
			// Invalid input is reported as this package's error, worded by
			// the reference check (error path only).
			if verr := data.Validate(); verr != nil {
				return nil, nil, fmt.Errorf("driver: %w", verr)
			}
			return nil, nil, err
		}
	}

	stats := &Stats{
		Scheme:        opts.Scheme,
		Partitions:    part.Partitions(),
		LocalSkylines: make(map[int]points.Set),
	}

	// MR-Grid dominance pruning needs cell occupancy, which is known after
	// assignment; we take a pre-pass over the data (the same O(n) assigns
	// the map phase performs) and hand the mapper a pruned-cell mask so
	// dominated cells are dropped at the source, sparing both the local
	// skyline computation and the shuffle — the paper's §III-B gain.
	var pruned []bool
	var occupancy []int
	if pruner, ok := part.(partition.Pruner); ok && !opts.DisableGridPruning {
		counts, err := partition.Histogram(part, data)
		if err != nil {
			return nil, nil, err
		}
		occupancy = counts
		occupied := make([]bool, len(counts))
		for id, c := range counts {
			occupied[id] = c > 0
		}
		pruned = pruner.Prunable(occupied)
		for _, p := range pruned {
			if p {
				stats.PrunedPartitions++
			}
		}
	}

	// Kernel selection: the flat block path is the default; ClassicKernel
	// (or a KernelOverride, which is inherently Set-typed) restores the
	// classic kernels. The dominance-test delta of the whole computation is
	// bridged into the registry on every exit path.
	flat := opts.flatPath()
	kernel := opts.kernelFunc()
	if reg := opts.Metrics; reg != nil {
		domBefore := skyline.DominanceTests()
		defer func() {
			reg.Counter("skyline_dominance_tests_total").Add(skyline.DominanceTests() - domBefore)
		}()
	}

	// Frame shuffle is the default on the flat path: intermediate data
	// moves as packed point frames instead of per-point Pairs.
	// ClassicShuffle restores the Pair path below as the escape hatch.
	if flat && !opts.ClassicShuffle {
		return computeFramed(ctx, data, opts, part, pruned, occupancy, stats)
	}

	// ---- Job 1: Partitioning Job ------------------------------------
	input := make([][]byte, len(data))
	for i, p := range data {
		input[i] = points.Encode(p)
	}

	// Occupancy is counted here in the mapper (atomically — map tasks run
	// concurrently) rather than by a second full Assign pass after the
	// job: the angular transform per point is the pipeline's single
	// largest cost, and the histogram re-ran all of it just for
	// diagnostics.
	occCounts := make([]int64, part.Partitions())
	// The mapper runs once per input point from several goroutines; the
	// pooled scratch removes the per-record Decode allocation (the decoded
	// point lives only for one Assign) and the precomputed key table the
	// per-record strconv.Itoa one.
	keys := make([]string, part.Partitions())
	for id := range keys {
		keys[id] = strconv.Itoa(id)
	}
	scratch := sync.Pool{New: func() any {
		p := make(points.Point, 0, data.Dim())
		return &p
	}}
	mapper := mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) error {
		buf := scratch.Get().(*points.Point)
		p, err := points.DecodeInto(*buf, rec)
		if err != nil {
			return err
		}
		id, err := part.Assign(p)
		*buf = p[:0]
		scratch.Put(buf)
		if err != nil {
			return err
		}
		atomic.AddInt64(&occCounts[id], 1)
		if pruned != nil && pruned[id] {
			return nil // cell provably dominated: drop at the source
		}
		emit(keys[id], rec)
		return nil
	})
	var flatKernel skyline.BlockFunc
	if flat {
		flatKernel = skyline.BlockByAlgorithm(opts.Kernel)
	}
	localSkyline := skylineReducer(kernel, flatKernel)
	cfg1 := mapreduce.Config{
		Name:     fmt.Sprintf("%s-partitioning", opts.Scheme),
		Workers:  opts.Workers,
		Reducers: opts.Workers,
		SpillDir: opts.SpillDir,
		Metrics:  opts.Metrics,
		Trace:    traceSink(ctx),
	}
	if !opts.DisableCombiner {
		cfg1.Combiner = localSkyline
	}
	res1, err := mapreduce.Run(ctx, cfg1, input, mapper, localSkyline)
	if err != nil {
		return nil, nil, err
	}

	// Collect local skylines and partition occupancy for the stats/metrics.
	for _, pair := range res1.Pairs {
		id, err := strconv.Atoi(pair.Key)
		if err != nil || id < 0 || id >= part.Partitions() {
			return nil, nil, fmt.Errorf("driver: bad partition key %q", pair.Key)
		}
		p, err := points.Decode(pair.Value)
		if err != nil {
			return nil, nil, err
		}
		stats.LocalSkylines[id] = append(stats.LocalSkylines[id], p)
	}
	// Occupancy histogram, accumulated by the mapper during the job.
	counts := make([]int, len(occCounts))
	for id := range occCounts {
		counts[id] = int(atomic.LoadInt64(&occCounts[id]))
	}
	stats.PartitionCounts = counts
	publishPartitionGauges(opts.Metrics, stats)

	// ---- Job 2: Merging Job -----------------------------------------
	if opts.HierarchicalMerge {
		stats.PartitionJob = res1.Timing
		stats.Timing = res1.Timing
		var mergeTiming mapreduce.Timing
		global, err := hierarchicalMerge(ctx, opts, res1.Pairs, localSkyline, &mergeTiming)
		if err != nil {
			return nil, nil, err
		}
		stats.MergeJob = mergeTiming
		stats.Timing.Add(mergeTiming)
		stats.Counters = res1.Counters.Snapshot()
		feedRecorder(ctx, opts, stats, global, nil)
		return global, stats, nil
	}

	mergeInput := make([][]byte, len(res1.Pairs))
	for i, pair := range res1.Pairs {
		mergeInput[i] = pair.Value
	}
	const globalKey = "global"
	identity := mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) error {
		emit(globalKey, rec) // paper line 13: output(null, si)
		return nil
	})
	cfg2 := mapreduce.Config{
		Name:     fmt.Sprintf("%s-merging", opts.Scheme),
		Workers:  opts.Workers,
		Reducers: 1, // all local skylines share one key (paper line 12-15)
		SpillDir: opts.SpillDir,
		Metrics:  opts.Metrics,
		Trace:    traceSink(ctx),
	}
	if !opts.DisableCombiner {
		// Pre-merge each map task's share before the single reducer sees
		// it, trimming the serial merge input.
		cfg2.Combiner = localSkyline
	}
	// The single global reduce is the pipeline's serial bottleneck; on the
	// flat path it runs the parallel merge tree (chunked block BNL, then
	// pairwise cross-filter merges across goroutines) instead of one
	// sequential BNL over the whole candidate union.
	mergeReduce := localSkyline
	if flat {
		mergeReduce = mergeTreeReducer(ctx, opts.Workers)
	}
	res2, err := mapreduce.Run(ctx, cfg2, mergeInput, identity, mergeReduce)
	if err != nil {
		return nil, nil, err
	}

	global := make(points.Set, 0, len(res2.Pairs))
	for _, pair := range res2.Pairs {
		p, err := points.Decode(pair.Value)
		if err != nil {
			return nil, nil, err
		}
		global = append(global, p)
	}

	stats.PartitionJob = res1.Timing
	stats.MergeJob = res2.Timing
	stats.Timing = res1.Timing
	stats.Timing.Add(res2.Timing)
	stats.Counters = res1.Counters.Snapshot()
	for k, v := range res2.Counters.Snapshot() {
		stats.Counters[k] += v
	}
	if reg := opts.Metrics; reg != nil {
		reg.Gauge("skyline_global_size").Set(float64(len(global)))
	}
	feedRecorder(ctx, opts, stats, global, nil)
	return global, stats, nil
}

// feedRecorder hands one finished computation's per-partition evidence to
// the context's flight recorder (no-op when recording is off): partition
// occupancy as input load, local skyline sizes, the Eq. (5) survivor
// counts — computed here where local and global skylines are both in
// hand — and, on the framed path, per-partition shuffle bytes. The
// rollups are then bridged into the run's metrics registry.
func feedRecorder(ctx context.Context, opts Options, stats *Stats, global points.Set, shuffle map[int]mapreduce.PartStat) {
	rec := telemetry.RecorderFrom(ctx)
	if rec == nil {
		return
	}
	rec.EnsurePartitions(stats.Partitions)
	for id, n := range stats.PartitionCounts {
		rec.SetPartitionInput(id, int64(n))
	}
	for id, ps := range shuffle {
		rec.AddPartitionShuffle(id, 0, ps.Bytes) // occupancy already carries the records
	}
	for id, ls := range stats.LocalSkylines {
		rec.SetLocalSkyline(id, len(ls))
	}
	for id, hits := range metrics.GlobalSurvivors(stats.LocalSkylines, global) {
		rec.SetGlobalSurvivors(id, hits)
	}
	rec.SetGlobalSkyline(len(global))
	rec.SetReducerPeak(stats.ReducerPeakBytes)
	rec.Publish(opts.Metrics)
}

// skylineReducer builds the local-skyline reducer shared by both jobs and
// the hierarchical merge rounds: decode the group's points, run the
// kernel, emit survivors under the same key. With a flat kernel the
// values decode straight into one contiguous block — no per-point
// allocation — and the block kernel's survivors are re-encoded from rows.
func skylineReducer(classic skyline.Func, flat skyline.BlockFunc) mapreduce.Reducer {
	if flat != nil {
		return mapreduce.ReducerFunc(func(key string, values [][]byte, emit mapreduce.Emit) error {
			blk := points.NewBlock(0, len(values))
			for _, v := range values {
				if err := points.AppendDecode(blk, v); err != nil {
					return err
				}
			}
			sky := flat(blk)
			for i := 0; i < sky.Len(); i++ {
				emit(key, points.Encode(points.Point(sky.Row(i))))
			}
			return nil
		})
	}
	return mapreduce.ReducerFunc(func(key string, values [][]byte, emit mapreduce.Emit) error {
		set := make(points.Set, 0, len(values))
		for _, v := range values {
			p, err := points.Decode(v)
			if err != nil {
				return err
			}
			set = append(set, p)
		}
		for _, p := range classic(set) {
			emit(key, points.Encode(p))
		}
		return nil
	})
}

// mergeTreeReducer is the flat path's global reducer: all candidates land
// under one key, get chunk-skylined concurrently and folded by the
// parallel merge tree. ctx carries the run's tracer so each merge level
// records a span.
// traceSink bridges the context's event log (telemetry.WithEventLog)
// into the engine's event stream, so in-process jobs narrate job/phase/
// retry/spill transitions to /debug/events. Nil when no log is bound.
func traceSink(ctx context.Context) mapreduce.EventSink {
	if log := telemetry.EventLogFrom(ctx); log != nil {
		return mapreduce.NewLogSink(log)
	}
	return nil
}

func mergeTreeReducer(ctx context.Context, workers int) mapreduce.Reducer {
	return mapreduce.ReducerFunc(func(key string, values [][]byte, emit mapreduce.Emit) error {
		blk := points.NewBlock(0, len(values))
		for _, v := range values {
			if err := points.AppendDecode(blk, v); err != nil {
				return err
			}
		}
		sky := skyline.ParallelBlock(ctx, blk, workers)
		for i := 0; i < sky.Len(); i++ {
			emit(key, points.Encode(points.Point(sky.Row(i))))
		}
		return nil
	})
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
