package driver

import (
	"context"
	"fmt"
	"runtime"
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
// partition, without staging it). A sealed window is a skyline, so the
// reduce folds take it in as one.
var bnlWindows = mapreduce.NewAccumulators(func() mapreduce.Accumulator { return skyline.NewWindow() })

// PartitionJob is Job 1 (Algorithm 1, lines 2–10) over dim-dimensional
// rows, without its Feed: assign each point — for MR-Angle, the angular
// transform of Eq. (1) — and route it to its partition unless pruned marks
// the cell provably dominated (MR-Grid pruning; nil prunes nothing), then
// reduce each partition to its local result. band is what every job
// constructor here calls its operator argument, and it alone picks the
// job's shape. 0 is the skyline, and the kernel is BNL: map side — the
// paper's "middle process" — every routed row folds into its partition's
// incremental window; reduce side every frame, one map task's sealed
// window, folds into its partition's skyline.BudgetedFold by AbsorbSealed,
// each row tested only against other map tasks' rows, under a window
// o.ReducerBudgetBytes bounds (0: no bound, one pass, and what
// skyline.BlockBNL over the partition keeps, as a multiset). k ≥ 1 is the
// k-skyband: the windows and the fold are skyline folds — one dominator
// evicts a row — so a band job stages its rows and assembles its frames and
// runs skyline.Skyband(·, k) over the block, the one value as combiner and
// as reducer. Of o it reads ReducerBudgetBytes, SpillDir and Codec.
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
		WithKernel(func(s points.Set) points.Set {
			kept, _ := skyline.Skyband(s, band) // errs only on band < 1
			return kept
		})(&job)
		return job
	}
	job.Accumulators = bnlWindows
	budget, spillDir, codec := o.ReducerBudgetBytes, o.SpillDir, o.Codec
	job.Folder = func(int) mapreduce.FrameFold {
		return skyline.NewBudgetedFold(dim, budget, spillDir, codec)
	}
	return job
}

// WithKernel is the edit that runs Job 1 under a Set-typed kernel f: rows
// staged and f's block form as the combiner map side, f over each assembled
// partition reduce side. The k-skyband's job is the skyline job under this
// edit, and so is every kernel row of the ablations (internal/experiments)
// and of the oracle tests.
func WithKernel(f skyline.Func) func(*mapreduce.FrameJob) {
	kernel := skyline.BlockKernel(f)
	op := func(_ int, blk *points.Block) (*points.Block, error) { return kernel(blk), nil }
	return func(job *mapreduce.FrameJob) {
		job.Accumulators, job.Combiner, job.Folder = nil, op, mapreduce.Assembled(op)
	}
}

// mergeTaskRows is the fewest candidates worth a map task of their own:
// below it the task's fixed costs — on a cluster, its group and the rows
// below it shipped and laid out once more — exceed what a second worker
// would save, so a few hundred candidates are one task.
const mergeTaskRows = 1024

// MergeTasks is the fewest map tasks the merging job is cut into: one per
// worker (0 means GOMAXPROCS), as far as the rows candidates go round.
func MergeTasks(workers, rows int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, (rows+mergeTaskRows-1)/mergeTaskRows)
}

// streamShare is the share of a reducer budget a merge task's streamed
// block may take: under a budget the rows streamed past a group come in
// pieces of at most budget/streamShare bytes, and the rest of the budget
// holds the group.
const streamShare = 8

// MergeInput cuts candidates, dim-dimensional local skylines taken as one
// row sequence, into the merging job's input: the rows sorted by (sum,
// index) (skyline.Sort, on tasks goroutines) and cut into groups, task g's
// list its group's input (skyline.Sorted.Input). There are K = max(tasks,
// the groups budget needs) groups. With no budget, or candidates that fit
// it, they are tasks groups of equal pair work (skyline.Sorted.Cut). Under a
// budget the candidates exceed, a task's counted peak — its group's layout
// (skyline.LayoutBytes), the largest piece streamed past it and its rows
// again, were every one to survive — must fit it: the streamed rows come in
// pieces of budget/streamShare bytes, and the groups are the fewest of
// equal counts that fit, or the tasks groups of equal pair work with any
// that overfills cut again. No candidates is no input; a candidate block of
// another dimension is an error wrapping skyline.ErrCandidates.
func MergeInput(candidates []*points.Block, dim, tasks int, budget int64) ([][]*points.Block, error) {
	n, rowBytes := 0, int64(dim)*8
	for _, blk := range candidates {
		n += blk.Len()
	}
	if n == 0 {
		return nil, nil
	}
	s, err := skyline.Sort(candidates, dim, tasks)
	if err != nil {
		return nil, err
	}
	ends, piece := s.Cut(tasks), 0
	if budget > 0 && int64(n)*rowBytes > budget {
		piece = int(max(1, budget/streamShare/rowBytes))
		peak := func(rows int) int64 { return skyline.LayoutBytes(rows, dim) + int64(min(piece, n)+rows)*rowBytes }
		fits := max(1, sort.Search(n, func(i int) bool { return peak(i+1) > budget }))
		if need := (n + fits - 1) / fits; need > len(ends) {
			ends = []int{n} // cut into need groups of equal counts below
		}
		var cut []int
		for g, hi := range ends {
			lo := 0
			if g > 0 {
				lo = ends[g-1]
			}
			for i, k := 1, (hi-lo+fits-1)/fits; i <= k; i++ {
				cut = append(cut, lo+i*(hi-lo)/k)
			}
		}
		ends = cut
	}
	inputs := make([][]*points.Block, len(ends))
	for g := range ends {
		inputs[g] = s.Input(ends, g, piece)
	}
	return inputs, nil
}

// MergeJob is Job 2 (Algorithm 1, lines 11–15), without its Feed — and
// without the paper's single reducer: it is map-only. Task g's input is
// what MergeInput cut for it: the level thresholds the candidates were
// fitted to, group g of the candidates, sorted by (sum, index), and the
// rows that can dominate one of the group's, which it streams past the
// group's layout before the group's own (skyline.MergeTask). It emits the
// group's rows no candidate strictly dominates (band k >= 1: fewer than k
// do) to the one global partition (paper line 13: output(null, si)).
// Nothing is combined and nothing is reduced: the job's output — its tasks'
// survivors in task order — is the global skyline, in (sum, index) order
// for any number of groups, and no row of it crosses a shuffle. A task
// reports its group's rows as its input and the peak it counts: the layout
// with its dominator counts, the largest block streamed past it and the
// rows it kept.
func MergeJob(dim, band int) mapreduce.FrameJob {
	return mapreduce.FrameJob{TaskMapper: func(input mapreduce.Blocks, _, _ int, emit mapreduce.EmitPoint) (mapreduce.FrameStats, error) {
		rows, peak, err := skyline.MergeTask(input, dim, band, func(row []float64) { emit(0, row) })
		if err != nil {
			return mapreduce.FrameStats{}, err
		}
		return mapreduce.FrameStats{MapIn: int64(rows), PeakBytes: peak, Passes: 1}, nil
	}}
}

// Executor is where Algorithm 1's jobs run. It decides where rows come from
// and where tasks run — Partition is Job 1 over the executor's own input,
// Merge the merging job (MergeJob) whose task t reads inputs[t] — and
// reports each job the way mapreduce.RunFrames does. Nothing after a job
// returns is an executor's: TwoJobs reads the results, keeps the statistics
// and cuts the merge. There are two: InProcess here, and package skyjob's
// cluster.
type Executor interface {
	Partition(ctx context.Context) (*mapreduce.FrameResult, error)
	Merge(ctx context.Context, inputs [][]*points.Block) (*mapreduce.FrameResult, error)
}

// inProcess runs every job on mapreduce.RunFrames: the Job 1 it was handed,
// whose map tasks fold each routed row into its partition's accumulator as
// it arrives and seal packed frames keyed by integer partition id while
// reduce tasks fold whole frames, and the merging job, fed blocks as they
// are.
type inProcess struct {
	job1      mapreduce.FrameJob
	dim, band int
	opts      Options
}

// InProcess is the in-process executor of TwoJobs: job1 — what PartitionJob
// returned, or a study's edit of it — over feed, then MergeJob(dim, band).
// Of opts it reads Scheme (the jobs' names), Workers, Codec and Metrics.
func InProcess(feed mapreduce.RowFeed, job1 mapreduce.FrameJob, dim, band int, opts Options) Executor {
	job1.Feed = feed
	return inProcess{job1: job1, dim: dim, band: band, opts: opts}
}

func (e inProcess) config(job string) mapreduce.Config {
	if e.band > 0 {
		job = fmt.Sprintf("skyband%d-%s", e.band, job)
	}
	return mapreduce.Config{
		Name:    fmt.Sprintf("%s-%s", e.opts.Scheme, job),
		Workers: e.opts.Workers,
		Metrics: e.opts.Metrics,
		Codec:   e.opts.Codec,
	}
}

func (e inProcess) Partition(ctx context.Context) (*mapreduce.FrameResult, error) {
	return mapreduce.RunFrames(ctx, e.config("partitioning"), e.job1)
}

func (e inProcess) Merge(ctx context.Context, inputs [][]*points.Block) (*mapreduce.FrameResult, error) {
	job := MergeJob(e.dim, e.band)
	job.Feed = mapreduce.WholeInput(inputs)
	return mapreduce.RunFrames(ctx, e.config("merging"), job)
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
// mask and its pre-pass histogram, or nil. The merge is MergeJob over
// MergeInput's groups, at least MergeTasks of them; when the candidates
// exceed opts.ReducerBudgetBytes it is booked as one merge round of budget-
// sized groups (Stats.MergeRounds, MergeGroups, MergeRoundBytes and a
// merge-round span). Of opts it also reads Scheme, Workers and Metrics. The statistics, the
// gauges and the context's flight record are fed here and nowhere else.
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

	// ---- Job 2: Merging Job -----------------------------------------
	rows := stats.LocalSkylineTotal()
	bytes := int64(rows) * int64(dim) * 8
	budgeted := opts.ReducerBudgetBytes > 0 && bytes > opts.ReducerBudgetBytes
	mergeCtx, round := ctx, (*telemetry.Span)(nil)
	if budgeted {
		mergeCtx, round = telemetry.StartSpan(ctx, "merge-round", telemetry.A("round", 1), telemetry.A("bytes", bytes))
	}
	// The sort and the cut are the merge's work, timed with its job.
	start := time.Now()
	inputs, err := MergeInput(candidates, dim, MergeTasks(opts.Workers, rows), opts.ReducerBudgetBytes)
	cut := time.Since(start)
	var res2 *mapreduce.FrameResult
	if err == nil {
		if budgeted {
			stats.MergeRounds, stats.MergeGroups, stats.MergeRoundBytes = 1, len(inputs), []int64{bytes}
			round.SetAttr("groups", len(inputs))
		}
		res2, err = exec.Merge(mergeCtx, inputs)
	}
	round.End()
	if err != nil {
		return nil, nil, err
	}
	stats.book(res2, &stats.MergeJob)
	stats.MergeJob.Map += cut
	stats.MergeJob.Total += cut
	globalBlk := res2.Blocks[0]
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
	return global, stats, nil
}
