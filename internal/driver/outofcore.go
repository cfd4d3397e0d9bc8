package driver

import (
	"context"
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// This file is the out-of-core entry point: datasets that never fit in
// memory enter as chunk recipes (mapreduce.ChunkSource), the partitioning
// job streams one chunk at a time through the framed engine, reducers
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
// exists only as a chunk recipe: src is read one chunk per map task (and
// re-read on retry — ReadChunk must be pure), so a 10⁸-point input is
// never materialized. Reducers fold shuffle frames under
// opts.ReducerBudgetBytes (default 1 GiB) and the merge runs as the
// multi-round budgeted schedule instead of one global reduce.
//
// When opts.PartitionerOverride is nil the partitioner is fitted to the
// first chunk — a sample fit: partition quality (not correctness) depends
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

	part := opts.PartitionerOverride
	if part == nil {
		var err error
		part, err = partition.New(opts.Scheme, sample.ToSet(), opts.Partitions)
		if err != nil {
			return nil, nil, err
		}
	}
	sample = nil // the job must not pin chunk 0
	return twoJobs(ctx, mapreduce.ChunkRows(src), dim, 0, part, nil, nil, opts)
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
func mergeSchedule(ctx context.Context, candidates []*points.Block, dim int, budget int64, opts Options, stats *Stats) (*points.Block, error) {
	if len(candidates) == 0 {
		return nil, nil
	}
	rec := telemetry.RecorderFrom(ctx)
	for round := 1; len(candidates) > 1 || round == 1; round++ {
		var groups [][]*points.Block
		var cur []*points.Block
		var curBytes int64
		for _, blk := range candidates {
			b := int64(blk.Len()) * int64(dim) * 8
			if len(cur) > 0 && curBytes+b > budget {
				groups = append(groups, cur)
				cur, curBytes = nil, 0
			}
			cur = append(cur, blk)
			curBytes += b
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
		var roundBytes int64
		next := make([]*points.Block, 0, len(groups))
		for _, g := range groups {
			fold := skyline.NewBudgetedFold(dim, budget, opts.SpillDir, opts.Codec)
			for _, blk := range g {
				roundBytes += int64(blk.Len()) * int64(dim) * 8
				if err := fold.Absorb(blk); err != nil {
					return nil, err
				}
			}
			out, err := fold.Finish()
			if err != nil {
				return nil, err
			}
			fs := fold.Stats()
			if fs.PeakBytes > stats.ReducerPeakBytes {
				stats.ReducerPeakBytes = fs.PeakBytes
			}
			if fs.Passes > stats.MergePasses {
				stats.MergePasses = fs.Passes
			}
			next = append(next, out)
		}
		stats.MergeRounds++
		stats.MergeRoundBytes = append(stats.MergeRoundBytes, roundBytes)
		rec.AddMergeRound(roundBytes)
		candidates = next
	}
	return candidates[0], nil
}
