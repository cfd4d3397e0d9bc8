package driver

import (
	"context"
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/telemetry"
)

// This file is the out-of-core entry point: datasets that never fit in
// memory enter as chunk recipes (mapreduce.ChunkSource), each map task of
// the partitioning job streams its chunks one at a time through the framed
// engine, reducers fold frames under a byte budget, and — when the local
// skylines do not fit that budget — TwoJobs merges them in rounds in the
// MRC mold (Goodrich et al., "Sorting, Searching, and Simulation in the
// MapReduce Framework"): a round is a map-only job whose tasks each fold one
// budget-sized group (roundGroups, here), so no task touches more than the
// budget, and rounds repeat until one block holds the global skyline. A
// round whose reduce would be the identity has no shuffle in that model,
// and has none here. Round count and per-round candidate bytes land in the
// flight recorder, matching the model's round-complexity accounting.

// defaultReducerBudget caps reducer memory at 1 GiB when the caller gave
// no budget — the paper-scale "commodity reducer" setting.
const defaultReducerBudget = 1 << 30

// ComputeStream runs the MapReduce skyline pipeline over a dataset that
// exists only as a chunk recipe: a map task is a worker's share of src's
// chunks, read one at a time into one recycled block, so a 10⁸-point
// input is never materialized while the task's partition windows stay warm
// across the whole share. Reducers fold shuffle frames under
// opts.ReducerBudgetBytes (default 1 GiB), and the merge is TwoJobs': the
// filter job when the local skylines fit the budget, else map-only rounds
// of budget-sized folds, on the same in-process engine.
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

// roundGroups packs one merge round: consecutive candidate blocks, greedily,
// into groups of at most budget bytes (rows·rowBytes), and returns them with
// the round's candidate volume. Each group is one map task of the round,
// folded by RoundJob, so no task holds more than ~budget bytes resident —
// the MRC memory constraint. When every candidate alone exceeds the budget
// the greedy packing makes no progress, so the round falls back to pairwise
// grouping; the folds then multi-pass internally, and the group count still
// halves. So a round of more than one block always leaves fewer, and the
// rounds end with one.
func roundGroups(candidates []*points.Block, rowBytes, budget int64) (groups [][]*points.Block, bytes int64) {
	var cur []*points.Block
	var curBytes int64
	for _, blk := range candidates {
		b := int64(blk.Len()) * rowBytes
		if len(cur) > 0 && curBytes+b > budget {
			groups = append(groups, cur)
			cur, curBytes = nil, 0
		}
		cur = append(cur, blk)
		curBytes += b
		bytes += b
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	if len(groups) >= len(candidates) && len(candidates) > 1 {
		groups = groups[:0]
		for i := 0; i < len(candidates); i += 2 {
			groups = append(groups, candidates[i:min(i+2, len(candidates))])
		}
	}
	return groups, bytes
}
