package driver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// This file defines Algorithm 1 — once. PartitionJob and MergeJob are what
// its two jobs compute, a mapreduce.FrameJob without its Feed; TwoJobs is
// the sequence, run on an Executor: InProcess, behind Compute, ComputeStream
// and ComputeSkyband, is handed Job 1 and a feed and runs the in-process
// engine, and package skyjob's hands the same values to rpcmr as registered
// jobs. An executor decides where rows come from and where tasks run, never
// what a task does nor what happens to its result.
//
// Ablations are job edits. A job is a value, so a study that wants Job 1
// without its combiner, with another kernel, unpruned or over its own
// partitioner (internal/experiments) edits the value PartitionJob returns
// and runs TwoJobs over InProcess of it — the seam the cluster executor
// already is. Nothing here branches on who is asking: no option, hook or
// environment variable selects an operator.

// bnlWindows recycles the map-side combiner: one incremental BNL window per
// partition, folded as points are routed (skyline.Window — the same
// dominance tests in the same order as skyline.BlockBNL over the staged
// partition, without staging it).
var bnlWindows = mapreduce.NewAccumulators(func() mapreduce.Accumulator { return skyline.NewWindow() })

// PartitionJob is Job 1 (Algorithm 1, lines 2–10) over dim-dimensional
// rows, without its Feed: assign each point — for MR-Angle, the angular
// transform of Eq. (1) — and route it to its partition unless pruned marks
// the cell provably dominated (MR-Grid pruning; nil prunes nothing), then
// reduce each partition to its local result. band is what every job
// constructor here calls its operator argument, and it alone picks the
// job's shape. 0 is the skyline, and the kernel is BNL: map side — the
// paper's "middle process" — every routed row folds into its partition's
// incremental window; reduce side every frame folds into its partition's
// skyline.BudgetedFold, whose window o.ReducerBudgetBytes bounds (0: no
// bound, and the fold is skyline.BlockBNL over the partition, a frame at a
// time). k ≥ 1 is the k-skyband: the windows and the fold are skyline folds
// — one dominator evicts a row — so a band job stages its rows and assembles
// its frames and runs skyline.Skyband(·, k) over the block, the one value as
// combiner and as reducer. Of o it reads ReducerBudgetBytes, SpillDir and
// Codec.
func PartitionJob(part partition.Partitioner, pruned []bool, dim, band int, o Options) mapreduce.FrameJob {
	job := mapreduce.FrameJob{Mapper: func(row []float64, emit mapreduce.EmitPoint) error {
		id, err := part.Assign(row)
		if err != nil {
			return err
		}
		if pruned == nil || !pruned[id] {
			emit(id, row)
		}
		return nil
	}}
	if band > 0 {
		kernel := skyline.BlockKernel(func(s points.Set) points.Set {
			kept, _ := skyline.Skyband(s, band) // errs only on band < 1
			return kept
		})
		skyband := func(_ int, blk *points.Block) (*points.Block, error) { return kernel(blk), nil }
		job.Combiner, job.Folder = skyband, mapreduce.Assembled(skyband)
		return job
	}
	job.Accumulators = bnlWindows
	budget, spillDir, codec := o.ReducerBudgetBytes, o.SpillDir, o.Codec
	job.Folder = func(int) mapreduce.FrameFold {
		return skyline.NewBudgetedFold(dim, budget, spillDir, codec)
	}
	return job
}

// mergeTaskRows is the fewest candidates worth a map task of their own:
// below it the task's fixed costs — on a cluster, the whole candidate set
// shipped and laid out once more — exceed what a second worker would save,
// so a few hundred candidates are one task.
const mergeTaskRows = 1024

// MergeTasks is the number of map tasks the merging job is cut into: one per
// worker (0 means GOMAXPROCS), as far as the rows candidates go round.
// TwoJobs hands each of them the whole candidate set.
func MergeTasks(workers, rows int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, (rows+mergeTaskRows-1)/mergeTaskRows)
}

// MergeJob is Job 2 (Algorithm 1, lines 11–15), without its Feed — and
// without the paper's single reducer: it is map-only. Its input is the
// candidate set, every local skyline row of dim dimensions, and every one of
// its map tasks reads all of it (mapreduce.WholeInput, the same list for
// each task): the candidates are laid out as a
// skyline.Filter — once per job value, on as many goroutines as the job has
// tasks, started by the first task to get there while the others wait for
// the layout, not for one builder; in process that is one layout a job, on a
// cluster, where a worker instantiates the job per task, one a task, each
// the same because the layout is a function of the rows — and task t tests
// rows t, t+T, … of the layout against it, emitting the survivors to the one
// global partition
// (paper line 13: output(null, si)). band is the operator: 0 keeps the rows
// no candidate dominates, k ≥ 1 those fewer than k do. Nothing is combined
// and nothing is reduced: the paper's one reducer would only concatenate the
// survivors, so the job's output — its map tasks' survivors in task order —
// is the global skyline, and no row of it crosses a shuffle.
func MergeJob(dim, band int) mapreduce.FrameJob {
	var (
		once   sync.Once
		filter *skyline.Filter
		err    error
	)
	return mapreduce.FrameJob{TaskMapper: func(input mapreduce.Blocks, task, tasks int, emit mapreduce.EmitPoint) (mapreduce.FrameStats, error) {
		var candidates []*points.Block
		if err := input(func(blk *points.Block) error {
			candidates = append(candidates, blk)
			return nil
		}); err != nil {
			return mapreduce.FrameStats{}, err
		}
		once.Do(func() { filter, err = layOut(candidates, dim, band, tasks) })
		if err != nil {
			return mapreduce.FrameStats{}, err
		}
		rows := filter.Share(task, tasks, func(row []float64) { emit(0, row) })
		return mapreduce.FrameStats{MapIn: int64(rows)}, nil
	}}
}

// layOut lays blocks out as a filter for a merge of dim-dimensional rows
// on builders goroutines; rows of another dimension are an error wrapping
// skyline.ErrCandidates.
func layOut(blocks []*points.Block, dim, band, builders int) (*skyline.Filter, error) {
	f, err := skyline.NewFilter(blocks, band, builders)
	if err == nil && f.Dim() != dim {
		err = otherDimension(f.Dim(), dim)
	}
	return f, err
}

// otherDimension is the error of candidate rows of dimension got in a merge
// of dim.
func otherDimension(got, dim int) error {
	return fmt.Errorf("%w: %d-dimensional rows in a %d-dimensional merge", skyline.ErrCandidates, got, dim)
}

// BlockedJob is the merge under a reducer budget, without its Feed: one
// map-only job whose task g is handed group g of the candidates — a range
// of rows TwoJobs sized to the budget (blockedInput) — as its first block,
// and then every candidate block. It lays the group out as a
// skyline.Filter, streams each block after it past the layout
// (skyline.Filter.Kill), keeping none of them, and emits the group's rows
// that no candidate strictly dominates (k ≥ 1: fewer than band do) to the
// one global partition, so the job's output — the groups' survivors in
// group order — is the global skyline, in one round. The task reports the
// peak it counts: the layout, a dominator count per row, the largest block
// streamed past it and the survivors it emitted.
func BlockedJob(dim, band int) mapreduce.FrameJob {
	return mapreduce.FrameJob{TaskMapper: func(input mapreduce.Blocks, _, _ int, emit mapreduce.EmitPoint) (mapreduce.FrameStats, error) {
		var (
			group      *skyline.Filter
			dominators []int32
			streamed   int
		)
		err := input(func(blk *points.Block) (err error) {
			if group == nil {
				group, err = layOut([]*points.Block{blk}, dim, band, 1)
				if err == nil {
					dominators = make([]int32, group.Len())
				}
				return err
			}
			streamed = max(streamed, blk.Len())
			return group.Kill(blk, dominators)
		})
		if err == nil && group == nil {
			err = errors.New("driver: a merge task without a group")
		}
		if err != nil {
			return mapreduce.FrameStats{}, err
		}
		kept := group.Alive(dominators, func(row []float64) { emit(0, row) })
		rowBytes := int64(dim) * 8
		return mapreduce.FrameStats{
			MapIn:     int64(group.Len()),
			PeakBytes: group.Bytes() + int64(group.Len())*dominatorBytes + int64(streamed+kept)*rowBytes,
			Passes:    1,
		}, nil
	}}
}

// Executor is where Algorithm 1's jobs run. It decides where rows come from
// and where tasks run — Partition is Job 1 over the executor's own input,
// Merge a map-only merging job whose task t reads inputs[t]: MergeJob, or
// BlockedJob when blocked — and reports each job the way mapreduce.RunFrames
// does. Nothing after a job returns is an executor's: TwoJobs reads the
// results, keeps the statistics and picks the merge. There are two:
// InProcess here, and package skyjob's cluster.
type Executor interface {
	Partition(ctx context.Context) (*mapreduce.FrameResult, error)
	Merge(ctx context.Context, blocked bool, inputs [][]*points.Block) (*mapreduce.FrameResult, error)
}

// inProcess runs every job on mapreduce.RunFrames: the Job 1 it was handed,
// whose map tasks fold each routed row into its partition's accumulator as
// it arrives and seal packed frames keyed by integer partition id while
// reduce tasks fold whole frames, and the merging jobs, fed blocks as they
// are.
type inProcess struct {
	job1      mapreduce.FrameJob
	dim, band int
	opts      Options
}

// InProcess is the in-process executor of TwoJobs: job1 — what PartitionJob
// returned, or a study's edit of it — over feed, then MergeJob(dim, band) or
// BlockedJob(dim, band). Of opts it reads Scheme (the jobs' names), Workers,
// SpillDir, Codec and Metrics.
func InProcess(feed mapreduce.RowFeed, job1 mapreduce.FrameJob, dim, band int, opts Options) Executor {
	job1.Feed = feed
	return inProcess{job1: job1, dim: dim, band: band, opts: opts}
}

func (e inProcess) config(ctx context.Context, job string) mapreduce.Config {
	if e.band > 0 {
		job = fmt.Sprintf("skyband%d-%s", e.band, job)
	}
	return mapreduce.Config{
		Name:     fmt.Sprintf("%s-%s", e.opts.Scheme, job),
		Workers:  e.opts.Workers,
		SpillDir: e.opts.SpillDir,
		Metrics:  e.opts.Metrics,
		Events:   telemetry.EventLogFrom(ctx),
		Codec:    e.opts.Codec,
	}
}

func (e inProcess) Partition(ctx context.Context) (*mapreduce.FrameResult, error) {
	return mapreduce.RunFrames(ctx, e.config(ctx, "partitioning"), e.job1)
}

func (e inProcess) Merge(ctx context.Context, blocked bool, inputs [][]*points.Block) (*mapreduce.FrameResult, error) {
	job, name := MergeJob(e.dim, e.band), "merging"
	if blocked {
		job, name = BlockedJob(e.dim, e.band), "merge-round"
	}
	job.Feed = mapreduce.WholeInput(inputs)
	return mapreduce.RunFrames(ctx, e.config(ctx, name), job)
}

// book adds a finished job's result to s: its timing to timing, its
// counters to the run's, its folds' peak and passes to the run's maxima.
func (s *Stats) book(res *mapreduce.FrameResult, timing *mapreduce.Timing) {
	timing.Add(res.Timing)
	for k, v := range res.Counters.Snapshot() {
		s.Counters[k] += v
	}
	s.ReducerPeakBytes = max(s.ReducerPeakBytes, res.ReducerPeakBytes)
	s.MergePasses = max(s.MergePasses, res.MergePasses)
}

// TwoJobs is Algorithm 1, once, for every entry point and both executors:
// Job 1 on exec, the local skylines out of its result, then the merge, as
// a map-only job on exec. part is the fitted partitioner exec's Job 1 routes
// by and dim its rows' dimension; pruned and occupancy are the grid pruning
// mask and its pre-pass histogram, or nil. The candidates' size picks the
// merge, here and nowhere else: when they fit opts.ReducerBudgetBytes, or
// there is no budget, the filter job (MergeJob) on MergeTasks tasks; when
// they do not, one blocked round (BlockedJob over blockedInput's groups).
// Of opts it also reads Scheme, Workers and Metrics. The statistics, the
// gauges, the context's event log and flight record are fed here and
// nowhere else.
func TwoJobs(ctx context.Context, exec Executor, dim int, part partition.Partitioner, pruned []bool, occupancy []int, opts Options) (points.Set, *Stats, error) {
	stats := &Stats{
		Scheme:        opts.Scheme,
		Partitions:    part.Partitions(),
		LocalSkylines: make(map[int]points.Set),
		Counters:      make(map[string]int64),
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
	stats.book(res1, &stats.PartitionJob)

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
	rows, rowBytes := stats.LocalSkylineTotal(), int64(dim)*8
	var globalBlk *points.Block
	if budget := opts.ReducerBudgetBytes; budget <= 0 || int64(rows)*rowBytes <= budget {
		inputs := make([][]*points.Block, MergeTasks(opts.Workers, rows))
		for t := range inputs {
			inputs[t] = candidates
		}
		res2, err := exec.Merge(ctx, false, inputs)
		if err != nil {
			return nil, nil, err
		}
		stats.book(res2, &stats.MergeJob)
		globalBlk = res2.Blocks[0]
	} else {
		groups, stream, err := blockedInput(candidates, dim, budget)
		if err != nil {
			return nil, nil, err
		}
		inputs := make([][]*points.Block, len(groups))
		for g, group := range groups {
			inputs[g] = append([]*points.Block{group}, stream...)
		}
		bytes := int64(rows) * rowBytes
		roundCtx, span := telemetry.StartSpan(ctx, "merge-round", telemetry.A("round", 1),
			telemetry.A("groups", len(groups)), telemetry.A("bytes", bytes))
		res, err := exec.Merge(roundCtx, true, inputs)
		span.End()
		if err != nil {
			return nil, nil, err
		}
		stats.book(res, &stats.MergeJob)
		stats.MergeRounds, stats.MergeGroups, stats.MergeRoundBytes = 1, len(groups), []int64{bytes}
		globalBlk = res.Blocks[0]
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
