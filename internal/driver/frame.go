package driver

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/skyline"
)

// bnlWindows recycles the default map-side combiner: one incremental BNL
// window per partition, folded as points are routed (skyline.Window — the
// same dominance tests in the same order as skyline.BlockBNL over the
// staged partition, without staging it).
var bnlWindows = mapreduce.NewAccumulators(func() mapreduce.Accumulator { return skyline.NewWindow() })

// mapSide picks the map-side "middle process" of both jobs: nothing under
// DisableCombiner, incremental windows for BNL, and for the other kernels
// — which need the whole block — staged rows plus a block combiner.
func (o Options) mapSide() (*mapreduce.Accumulators, mapreduce.FrameCombiner) {
	switch {
	case o.DisableCombiner:
		return nil, nil
	case o.Kernel == skyline.BNLAlgorithm:
		return bnlWindows, nil
	default:
		kernel := skyline.BlockByAlgorithm(o.Kernel)
		return nil, func(_ int, blk *points.Block) (*points.Block, error) { return kernel(blk), nil }
	}
}

// reduceSide completes job with its reduce half. Under a reducer budget
// the reducers fold frames one at a time into a bounded skyline window
// instead of assembling whole partitions; otherwise kernel runs over each
// assembled partition and its survivors are the partition's output.
func (o Options) reduceSide(job *mapreduce.FrameJob, dim int, kernel skyline.BlockFunc) {
	if o.ReducerBudgetBytes > 0 {
		job.Folder = BudgetedFolder(dim, o.ReducerBudgetBytes, o.SpillDir, o.Codec)
		return
	}
	job.Reducer = mapreduce.FrameReducerFunc(func(partition int, blk *points.Block, emit mapreduce.EmitPoint) error {
		sky := kernel(blk)
		for i := 0; i < sky.Len(); i++ {
			emit(partition, sky.Row(i))
		}
		return nil
	})
}

// routeRows is Job 1's mapper (Algorithm 1, lines 2–5): assign the point —
// for MR-Angle, the angular transform of Eq. (1) — and emit it under its
// partition id, unless the cell is provably dominated (MR-Grid pruning).
func routeRows(part partition.Partitioner, pruned []bool) mapreduce.RowMapper {
	return func(row []float64, emit mapreduce.EmitPoint) error {
		id, err := part.Assign(row)
		if err != nil {
			return err
		}
		if pruned == nil || !pruned[id] {
			emit(id, row)
		}
		return nil
	}
}

// routedCounts turns the engine's per-partition routed-point tallies into
// the dense occupancy histogram of Stats.PartitionCounts.
func routedCounts(parts map[int]mapreduce.PartStat, n int) []int {
	counts := make([]int, n)
	for id, ps := range parts {
		if id >= 0 && id < n {
			counts[id] = int(ps.Records)
		}
	}
	return counts
}

// computeFramed is Compute's default flat-path body: the two-job pipeline
// over the block-framed shuffle. Map tasks are fed the input set's rows
// directly, fold each routed point into its partition's accumulator as it
// arrives, and seal packed frames keyed by integer partition id; reducers
// ingest whole frames into contiguous blocks, and the merging job is fed
// the partitioning job's result blocks as they are. Grid pruning, spilling
// and the hierarchical merge all behave exactly as on the classic path.
// occupancy is the pre-pass histogram when grid pruning took one, else nil.
func computeFramed(ctx context.Context, data points.Set, opts Options, part partition.Partitioner, pruned []bool, occupancy []int, stats *Stats) (points.Set, *Stats, error) {
	blockKernel := skyline.BlockByAlgorithm(opts.Kernel)
	accumulators, combiner := opts.mapSide()

	// ---- Job 1: Partitioning Job ------------------------------------
	job1 := mapreduce.FrameJob{
		Feed:         mapreduce.SetRows(data),
		Mapper:       routeRows(part, pruned),
		Accumulators: accumulators,
		Combiner:     combiner,
	}
	opts.reduceSide(&job1, data.Dim(), blockKernel)
	cfg1 := mapreduce.Config{
		Name:               fmt.Sprintf("%s-partitioning", opts.Scheme),
		Workers:            opts.Workers,
		Reducers:           opts.Workers,
		SpillDir:           opts.SpillDir,
		Metrics:            opts.Metrics,
		Trace:              traceSink(ctx),
		Codec:              opts.Codec,
		ReducerBudgetBytes: opts.ReducerBudgetBytes,
	}
	res1, err := mapreduce.RunFrames(ctx, cfg1, job1)
	if err != nil {
		return nil, nil, err
	}
	stats.ReducerPeakBytes = res1.ReducerPeakBytes
	stats.MergePasses = res1.MergePasses

	for id, blk := range res1.Blocks {
		if id < 0 || id >= part.Partitions() {
			return nil, nil, fmt.Errorf("driver: bad partition id %d in frame output", id)
		}
		stats.LocalSkylines[id] = blk.ToSet()
	}
	// Occupancy is what the mapper routed, which the engine already counts
	// per partition; pruned cells route nothing, but then the pruning
	// pre-pass has the whole histogram.
	stats.PartitionCounts = occupancy
	if occupancy == nil {
		stats.PartitionCounts = routedCounts(res1.Partitions, part.Partitions())
	}
	publishPartitionGauges(opts.Metrics, stats)

	// ---- Job 2: Merging Job -----------------------------------------
	if opts.HierarchicalMerge {
		// The iterative merge rounds run on the classic Pair plumbing
		// (group-prefixed records); feed them the frame job's local
		// skylines in ascending partition order for determinism.
		stats.PartitionJob = res1.Timing
		stats.Timing = res1.Timing
		var pairs []mapreduce.Pair
		for _, id := range sortedBlockIDs(res1.Blocks) {
			key := strconv.Itoa(id)
			blk := res1.Blocks[id]
			for i := 0; i < blk.Len(); i++ {
				pairs = append(pairs, mapreduce.Pair{
					Key: key, Value: points.Encode(points.Point(blk.Row(i)))})
			}
		}
		reducer := skylineReducer(opts.kernelFunc(), blockKernel)
		var mergeTiming mapreduce.Timing
		global, err := hierarchicalMerge(ctx, opts, pairs, reducer, &mergeTiming)
		if err != nil {
			return nil, nil, err
		}
		stats.MergeJob = mergeTiming
		stats.Timing.Add(mergeTiming)
		stats.Counters = res1.Counters.Snapshot()
		feedRecorder(ctx, opts, stats, global, res1.Partitions)
		return global, stats, nil
	}

	// The local skylines enter the merging job as the blocks Job 1 produced,
	// in ascending partition order.
	candidates := make([]*points.Block, 0, len(res1.Blocks))
	for _, id := range sortedBlockIDs(res1.Blocks) {
		candidates = append(candidates, res1.Blocks[id])
	}
	job2 := mapreduce.FrameJob{
		Feed: mapreduce.BlockRows(candidates),
		Mapper: func(row []float64, emit mapreduce.EmitPoint) error {
			emit(0, row) // paper line 13: output(null, si) — one global partition
			return nil
		},
		// Pre-merge each map task's share before the single reducer sees it.
		Accumulators: accumulators,
		Combiner:     combiner,
	}
	// Unbudgeted, the single global reduce runs the parallel merge tree on
	// the assembled candidate block.
	opts.reduceSide(&job2, data.Dim(), func(blk *points.Block) *points.Block {
		return skyline.ParallelBlock(ctx, blk, opts.Workers)
	})
	cfg2 := mapreduce.Config{
		Name:               fmt.Sprintf("%s-merging", opts.Scheme),
		Workers:            opts.Workers,
		Reducers:           1, // all local skylines share one partition (paper line 12-15)
		SpillDir:           opts.SpillDir,
		Metrics:            opts.Metrics,
		Trace:              traceSink(ctx),
		Codec:              opts.Codec,
		ReducerBudgetBytes: opts.ReducerBudgetBytes,
	}
	res2, err := mapreduce.RunFrames(ctx, cfg2, job2)
	if err != nil {
		return nil, nil, err
	}
	if res2.ReducerPeakBytes > stats.ReducerPeakBytes {
		stats.ReducerPeakBytes = res2.ReducerPeakBytes
	}
	if res2.MergePasses > stats.MergePasses {
		stats.MergePasses = res2.MergePasses
	}

	var global points.Set
	if blk := res2.Blocks[0]; blk != nil {
		global = blk.ToSet()
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
	feedRecorder(ctx, opts, stats, global, res1.Partitions)
	return global, stats, nil
}

// sortedBlockIDs returns a frame result's partition ids ascending.
func sortedBlockIDs(blocks map[int]*points.Block) []int {
	ids := make([]int, 0, len(blocks))
	for id := range blocks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
