package driver

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fan"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// This file is the out-of-core entry point: datasets that never fit in
// memory enter as chunk recipes (mapreduce.ChunkSource), each map task of
// the partitioning job streams its chunks one at a time through the framed
// engine, reducers
// fold frames under a byte budget, and the merge runs as a multi-round
// schedule in the MRC mold (Goodrich et al., "Sorting, Searching, and
// Simulation in the MapReduce Framework"): each round's reducers touch at
// most the memory budget, and rounds repeat until one group holds the
// global skyline. Round count and per-round candidate bytes land in the
// flight recorder, matching the model's round-complexity accounting.

// defaultReducerBudget caps reducer memory at 1 GiB when the caller gave
// no budget — the paper-scale "commodity reducer" setting.
const defaultReducerBudget = 1 << 30

// ComputeStream runs the MapReduce skyline pipeline over a dataset that
// exists only as a chunk recipe: a map task is a worker's share of src's
// chunks, read one at a time into one recycled block, so a 10⁸-point
// input is never materialized while the task's partition windows stay warm
// across the whole share. Reducers fold shuffle frames under
// opts.ReducerBudgetBytes (default 1 GiB) and the merge runs as the
// multi-round budgeted schedule instead of one global reduce.
//
// The partitioner is fitted to the first chunk — a sample fit: partition quality (not correctness) depends
// on the chunk being representative, which holds for the synthetic
// generators whose chunks are i.i.d.
func ComputeStream(ctx context.Context, src mapreduce.ChunkSource, opts Options) (points.Set, *Stats, error) {
	opts = opts.withDefaults()
	if opts.ReducerBudgetBytes <= 0 {
		opts.ReducerBudgetBytes = defaultReducerBudget
	}
	if src.Chunks() == 0 {
		return nil, nil, fmt.Errorf("driver: empty chunk source")
	}
	sample := points.NewBlock(0, 0)
	if err := src.ReadChunk(0, sample); err != nil {
		return nil, nil, fmt.Errorf("driver: sampling chunk 0: %w", err)
	}
	if sample.Len() == 0 {
		return nil, nil, fmt.Errorf("driver: chunk 0 is empty")
	}
	dim := sample.Dim()

	ctx, rootSpan := telemetry.StartSpan(ctx, fmt.Sprintf("skyline-stream:%s", opts.Scheme),
		telemetry.A("scheme", fmt.Sprint(opts.Scheme)),
		telemetry.A("chunks", src.Chunks()),
		telemetry.A("budget_bytes", opts.ReducerBudgetBytes))
	defer rootSpan.End()

	part, err := partition.New(opts.Scheme, sample.ToSet(), opts.Partitions)
	if err != nil {
		return nil, nil, err
	}
	sample = nil // the job must not pin chunk 0
	exec := InProcess(mapreduce.ChunkRows(src), PartitionJob(part, nil, dim, 0, opts), dim, 0, opts)
	return TwoJobs(ctx, exec, dim, part, nil, nil, opts)
}

// mergeSchedule folds the local skyline blocks to the global skyline in
// rounds: each round greedily packs consecutive candidate blocks into
// groups of at most the byte budget and reduces every group to its
// skyline through a BudgetedFold, so no round holds more than ~budget
// bytes resident per group — the MRC memory constraint. Rounds repeat
// until one group remains. When every candidate alone exceeds the budget
// the greedy packing makes no progress, so the round falls back to
// pairwise grouping; the folds then multi-pass internally, and the group
// count still halves — termination is unconditional.
//
// A round's groups are independent reducers: they fold on up to
// opts.Workers goroutines, so a round holds at most Workers × budget
// resident, as Job 1's concurrent budgeted reducers do. Survivors are
// collected in group order — rows and their order do not depend on Workers.
func mergeSchedule(ctx context.Context, candidates []*points.Block, dim int, budget int64, opts Options, stats *Stats) (*points.Block, error) {
	if len(candidates) == 0 {
		return nil, nil
	}
	for round := 1; len(candidates) > 1 || round == 1; round++ {
		var groups [][]*points.Block
		var cur []*points.Block
		var curBytes, roundBytes int64
		for _, blk := range candidates {
			b := int64(blk.Len()) * int64(dim) * 8
			if len(cur) > 0 && curBytes+b > budget {
				groups = append(groups, cur)
				cur, curBytes = nil, 0
			}
			cur = append(cur, blk)
			curBytes += b
			roundBytes += b
		}
		if len(cur) > 0 {
			groups = append(groups, cur)
		}
		if len(groups) >= len(candidates) && len(candidates) > 1 {
			groups = groups[:0]
			for i := 0; i < len(candidates); i += 2 {
				hi := min(i+2, len(candidates))
				groups = append(groups, candidates[i:hi])
			}
		}
		roundCtx, span := telemetry.StartSpan(ctx, "merge-round", telemetry.A("round", round),
			telemetry.A("groups", len(groups)), telemetry.A("bytes", roundBytes))
		next, folds, err := foldRound(roundCtx, groups, dim, budget, opts)
		span.End()
		if err != nil {
			return nil, err
		}
		for _, fs := range folds {
			stats.ReducerPeakBytes = max(stats.ReducerPeakBytes, fs.PeakBytes)
			stats.MergePasses = max(stats.MergePasses, fs.Passes)
		}
		stats.MergeRounds++
		stats.MergeRoundBytes = append(stats.MergeRoundBytes, roundBytes)
		candidates = next
	}
	return candidates[0], nil
}

// foldRound reduces each group of a round on up to opts.Workers goroutines
// that take the groups in order, and returns the survivors and the folds'
// stats in group order once every goroutine has exited. The first error —
// ctx's, checked before each group, or a fold's — stops the groups not yet
// started and is returned.
func foldRound(ctx context.Context, groups [][]*points.Block, dim int, budget int64, opts Options) ([]*points.Block, []skyline.FoldStats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	next := make([]*points.Block, len(groups))
	folds := make([]skyline.FoldStats, len(groups))
	var taken atomic.Int64
	var failOnce sync.Once
	var firstErr error
	fan.Out(min(opts.Workers, len(groups)), func(worker int) {
		for g := int(taken.Add(1)) - 1; g < len(groups); g = int(taken.Add(1)) - 1 {
			err := ctx.Err()
			if err == nil {
				next[g], folds[g], err = foldGroup(ctx, worker, g, groups[g], dim, budget, opts)
			}
			if err != nil {
				failOnce.Do(func() { firstErr = err; cancel() })
				return
			}
		}
	})
	return next, folds, firstErr
}

// foldGroup is one reducer of a round: the group's blocks through a
// BudgetedFold, closed on every path so a failed absorb leaves no file.
func foldGroup(ctx context.Context, worker, g int, group []*points.Block, dim int, budget int64, opts Options) (*points.Block, skyline.FoldStats, error) {
	_, span := telemetry.StartSpan(ctx, "merge-fold", telemetry.A("group", g))
	span.SetTrack(worker + 1)
	defer span.End()
	fold := skyline.NewBudgetedFold(dim, budget, opts.SpillDir, opts.Codec)
	defer fold.Close()
	for _, blk := range group {
		if err := fold.Absorb(blk); err != nil {
			return nil, skyline.FoldStats{}, err
		}
	}
	out, err := fold.Finish()
	return out, fold.Stats(), err
}
