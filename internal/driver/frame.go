package driver

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// This file defines Algorithm 1 — once. PartitionJob and MergeJob are what
// its two jobs compute, a mapreduce.FrameJob without its Feed; TwoJobs is
// the sequence, run on an Executor: inProcess, behind Compute, ComputeStream
// and ComputeSkyband, gives the jobs a feed and the in-process engine, and
// package skyjob's hands the same values to rpcmr as registered jobs. An
// executor decides where rows come from and where tasks run, never what a
// task does nor what happens to its result.

// bnlWindows recycles the default map-side combiner: one incremental BNL
// window per partition, folded as points are routed (skyline.Window — the
// same dominance tests in the same order as skyline.BlockBNL over the
// staged partition, without staging it).
var bnlWindows = mapreduce.NewAccumulators(func() mapreduce.Accumulator { return skyline.NewWindow() })

// blockKernel resolves the operator both jobs run over a block. band is
// what every job constructor here calls its operator argument: 0 is the
// skyline — the flat implementation of o.Kernel, or KernelOverride through
// the Set↔Block adapter — and k ≥ 1 the k-skyband, skyline.Skyband(·, k)
// through the same adapter.
func (o Options) blockKernel(band int) skyline.BlockFunc {
	switch {
	case band > 0:
		return skyline.BlockKernel(func(s points.Set) points.Set {
			kept, _ := skyline.Skyband(s, band) // errs only on band < 1
			return kept
		})
	case o.KernelOverride != nil:
		return skyline.BlockKernel(o.KernelOverride)
	}
	return skyline.BlockByAlgorithm(o.Kernel)
}

// frameJob assembles a job around mapper. Map side, the "middle process":
// nothing under DisableCombiner, incremental windows for BNL, and for the
// other operators — which need the whole block — staged rows plus a block
// combiner. Reduce side: under a reducer budget the reducers fold frames
// one at a time into a bounded skyline window instead of assembling whole
// partitions; otherwise reduce runs over each assembled partition and its
// survivors are the partition's output. The windows and the budgeted fold
// are skyline folds — one dominator evicts a row — so a band job gets
// neither.
func (o Options) frameJob(dim, band int, mapper mapreduce.RowMapper, reduce skyline.BlockFunc) mapreduce.FrameJob {
	job := mapreduce.FrameJob{Mapper: mapper}
	switch {
	case o.DisableCombiner:
	case band == 0 && o.KernelOverride == nil && o.Kernel == skyline.BNLAlgorithm:
		job.Accumulators = bnlWindows
	default:
		kernel := o.blockKernel(band)
		job.Combiner = func(_ int, blk *points.Block) (*points.Block, error) { return kernel(blk), nil }
	}
	if budget := o.ReducerBudgetBytes; budget > 0 && band == 0 {
		spillDir, codec := o.SpillDir, o.Codec
		job.Folder = func(int) mapreduce.FrameFold {
			return skyline.NewBudgetedFold(dim, budget, spillDir, codec)
		}
		return job
	}
	job.Reducer = mapreduce.FrameReducerFunc(func(partition int, blk *points.Block, emit mapreduce.EmitPoint) error {
		sky := reduce(blk)
		for i := 0; i < sky.Len(); i++ {
			emit(partition, sky.Row(i))
		}
		return nil
	})
	return job
}

// PartitionJob is Job 1 (Algorithm 1, lines 2–10) over dim-dimensional
// rows, without its Feed: assign each point — for MR-Angle, the angular
// transform of Eq. (1) — and route it to its partition unless pruned marks
// the cell provably dominated (MR-Grid pruning; nil prunes nothing); the
// operator band selects (see blockKernel) reduces each partition to its
// local skyline or band. Of o it reads Kernel, KernelOverride,
// DisableCombiner, ReducerBudgetBytes, SpillDir and Codec.
func PartitionJob(part partition.Partitioner, pruned []bool, dim, band int, o Options) mapreduce.FrameJob {
	return o.frameJob(dim, band, func(row []float64, emit mapreduce.EmitPoint) error {
		id, err := part.Assign(row)
		if err != nil {
			return err
		}
		if pruned == nil || !pruned[id] {
			emit(id, row)
		}
		return nil
	}, o.blockKernel(band))
}

// MergeJob is Job 2 (Algorithm 1, lines 11–15), without its Feed: every
// local skyline point goes to the one global partition, each map task
// pre-merging its share, and — unbudgeted — the single reduce runs the
// parallel merge tree on the assembled candidate block (for a band, the
// band operator: the tree is a skyline merge). ctx carries the run's tracer
// so each merge level records a span; o.Workers sizes the tree (0 means
// GOMAXPROCS) and band and o are otherwise read as by PartitionJob.
func MergeJob(ctx context.Context, dim, band int, o Options) mapreduce.FrameJob {
	reduce := func(blk *points.Block) *points.Block {
		return skyline.ParallelBlock(ctx, blk, o.Workers)
	}
	if band > 0 {
		reduce = o.blockKernel(band)
	}
	return o.frameJob(dim, band, func(row []float64, emit mapreduce.EmitPoint) error {
		emit(0, row) // paper line 13: output(null, si) — one global partition
		return nil
	}, reduce)
}

// Executor is where Algorithm 1's two jobs run. It decides where rows come
// from and where tasks run — Partition is Job 1 over the executor's own
// input, Merge is Job 2 over the local skylines it is handed, in ascending
// partition order — and reports each job the way mapreduce.RunFrames does.
// Nothing after a job returns is an executor's: TwoJobs reads the results,
// keeps the statistics and picks the merge. There are two: inProcess here,
// and package skyjob's cluster.
type Executor interface {
	Partition(ctx context.Context) (*mapreduce.FrameResult, error)
	Merge(ctx context.Context, candidates []*points.Block) (*mapreduce.FrameResult, error)
}

// inProcess runs both jobs on mapreduce.RunFrames, Job 1 over feed: map
// tasks fold each routed row into its partition's accumulator as it arrives
// and seal packed frames keyed by integer partition id, reducers ingest
// whole frames, and the merge is fed Job 1's result blocks as they are.
type inProcess struct {
	feed      mapreduce.RowFeed
	part      partition.Partitioner
	pruned    []bool
	dim, band int
	opts      Options
}

func (e inProcess) config(ctx context.Context, job string, reducers int) mapreduce.Config {
	if e.band > 0 {
		job = fmt.Sprintf("skyband%d-%s", e.band, job)
	}
	return mapreduce.Config{
		Name:               fmt.Sprintf("%s-%s", e.opts.Scheme, job),
		Workers:            e.opts.Workers,
		Reducers:           reducers,
		SpillDir:           e.opts.SpillDir,
		Metrics:            e.opts.Metrics,
		Events:             telemetry.EventLogFrom(ctx),
		Codec:              e.opts.Codec,
		ReducerBudgetBytes: e.opts.ReducerBudgetBytes,
	}
}

func (e inProcess) Partition(ctx context.Context) (*mapreduce.FrameResult, error) {
	job := PartitionJob(e.part, e.pruned, e.dim, e.band, e.opts)
	job.Feed = e.feed
	return mapreduce.RunFrames(ctx, e.config(ctx, "partitioning", e.opts.Workers), job)
}

func (e inProcess) Merge(ctx context.Context, candidates []*points.Block) (*mapreduce.FrameResult, error) {
	job := MergeJob(ctx, e.dim, e.band, e.opts)
	job.Feed = mapreduce.BlockRows(candidates)
	// All local skylines share one partition (paper lines 12–15).
	return mapreduce.RunFrames(ctx, e.config(ctx, "merging", 1), job)
}

// TwoJobs is Algorithm 1, once, for every entry point and both executors:
// Job 1 on exec, the local skylines out of its result, then the merge.
// part is the fitted partitioner exec's Job 1 routes by and dim its rows'
// dimension; pruned and occupancy are the grid pruning mask and its
// pre-pass histogram, or nil. opts.ReducerBudgetBytes is the one value that
// picks the merge: 0 runs exec's single merging job, > 0 the multi-round
// schedule of mergeSchedule, here, over the local skylines already in hand.
// Of opts it also reads Scheme, Workers, SpillDir and Codec (the schedule's
// folds) and Metrics. The statistics, the gauges, the context's event log
// and flight record are fed here and nowhere else.
func TwoJobs(ctx context.Context, exec Executor, dim int, part partition.Partitioner, pruned []bool, occupancy []int, opts Options) (points.Set, *Stats, error) {
	stats := &Stats{
		Scheme:        opts.Scheme,
		Partitions:    part.Partitions(),
		LocalSkylines: make(map[int]points.Set),
	}
	for _, p := range pruned {
		if p {
			stats.PrunedPartitions++
		}
	}
	// The dominance tests of the whole computation, as far as this process
	// ran them, are bridged into the registry on every exit path.
	domBefore := skyline.DominanceTests()
	defer func() {
		stats.DominanceTests = skyline.DominanceTests() - domBefore
		if reg := opts.Metrics; reg != nil {
			reg.Counter("skyline_dominance_tests_total").Add(stats.DominanceTests)
		}
	}()
	// Every EventLog method is nil-safe, so no log means no cost.
	ev := telemetry.EventLogFrom(ctx)
	ev.Info("pipeline start", telemetry.A("scheme", fmt.Sprint(opts.Scheme)),
		telemetry.A("partitions", stats.Partitions))

	// ---- Job 1: Partitioning Job ------------------------------------
	res1, err := exec.Partition(ctx)
	if err != nil {
		return nil, nil, err
	}
	stats.PartitionJob = res1.Timing
	stats.Counters = res1.Counters.Snapshot()
	stats.ReducerPeakBytes = res1.ReducerPeakBytes
	stats.MergePasses = res1.MergePasses

	// The local skylines enter the merge as the blocks Job 1 produced, in
	// ascending partition order.
	ids := make([]int, 0, len(res1.Blocks))
	for id := range res1.Blocks {
		if id < 0 || id >= part.Partitions() {
			return nil, nil, fmt.Errorf("driver: bad partition id %d in frame output", id)
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	candidates := make([]*points.Block, len(ids))
	for i, id := range ids {
		candidates[i] = res1.Blocks[id]
		stats.LocalSkylines[id] = candidates[i].ToSet()
	}
	// Occupancy is what the mapper routed, which the engine already counts
	// per partition; pruned cells route nothing, but then the pruning
	// pre-pass has the whole histogram.
	stats.PartitionCounts = occupancy
	if occupancy == nil {
		stats.PartitionCounts = make([]int, stats.Partitions)
		for id, ps := range res1.Partitions {
			if id >= 0 && id < len(stats.PartitionCounts) {
				stats.PartitionCounts[id] = int(ps.Records)
			}
		}
	}
	publishPartitionGauges(opts.Metrics, stats)
	ev.Info("partitioning job done",
		telemetry.A("points", stats.Counters[mapreduce.CounterMapIn]),
		telemetry.A("local_skyline_points", stats.LocalSkylineTotal()),
		telemetry.A("partitions_hit", len(ids)))

	// ---- Job 2: Merging Job -----------------------------------------
	var globalBlk *points.Block
	if budget := opts.ReducerBudgetBytes; budget > 0 {
		mergeCtx, mergeSpan := telemetry.StartSpan(ctx, "merge-schedule")
		start := time.Now()
		globalBlk, err = mergeSchedule(mergeCtx, candidates, dim, budget, opts, stats)
		mergeSpan.End()
		if err != nil {
			return nil, nil, err
		}
		// The schedule is all reduce work: folds over candidate blocks.
		wall := time.Since(start)
		stats.MergeJob = mapreduce.Timing{Reduce: wall, Total: wall}
	} else {
		res2, err := exec.Merge(ctx, candidates)
		if err != nil {
			return nil, nil, err
		}
		stats.MergeJob = res2.Timing
		for k, v := range res2.Counters.Snapshot() {
			stats.Counters[k] += v
		}
		globalBlk = res2.Blocks[0]
	}
	stats.Timing = stats.PartitionJob
	stats.Timing.Add(stats.MergeJob)

	var global points.Set
	if globalBlk != nil {
		global = globalBlk.ToSet()
	}
	if reg := opts.Metrics; reg != nil {
		reg.Gauge("skyline_global_size").Set(float64(len(global)))
	}
	feedRecorder(ctx, opts, stats, global, res1.Partitions)
	ev.Info("pipeline end", telemetry.A("skyline_size", len(global)))
	return global, stats, nil
}
