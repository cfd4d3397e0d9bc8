package driver

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/telemetry"
)

// This file is the out-of-core entry point: datasets that never fit in
// memory enter as chunk recipes (mapreduce.ChunkSource), each map task of
// the partitioning job streams its chunks one at a time through the framed
// engine, reducers fold frames under a byte budget, and — when the local
// skylines do not fit that budget — TwoJobs' merge is one round in the MRC
// mold (Goodrich et al., "Sorting, Searching, and Simulation in the
// MapReduce Framework": a round in which no task holds more than the budget
// M). MergeInput cuts the sorted candidates into groups sized to the
// budget; task g lays out group g and streams past it, in budget-sized
// pieces, the rows at or below its sums (MergeJob), so no task holds more
// than the budget, and the groups' survivors are the global skyline. The
// round and its candidate bytes land in the flight recorder, matching the
// model's round-complexity accounting.

// defaultReducerBudget caps reducer memory at 1 GiB when the caller gave
// no budget — the paper-scale "commodity reducer" setting.
const defaultReducerBudget = 1 << 30

// ComputeStream runs the MapReduce skyline pipeline over a dataset that
// exists only as a chunk recipe: a map task is a worker's share of src's
// chunks, each walked in pieces through one recycled block, so neither a
// 10⁸-point input nor one chunk of it is ever materialized while the task's
// partition windows stay warm across the whole share. Reducers fold shuffle
// frames under opts.ReducerBudgetBytes (default 1 GiB), and the merge is
// TwoJobs', its groups budget-sized when the local skylines exceed the
// budget, on the same in-process engine.
//
// The partitioner is fitted to its sample of the first chunk (fitSample) —
// partition quality (not correctness) depends on the chunk being
// representative, which holds for the synthetic generators whose chunks are
// i.i.d.
func ComputeStream(ctx context.Context, src mapreduce.ChunkSource, opts Options) (points.Set, *Stats, error) {
	opts = opts.withDefaults()
	if opts.ReducerBudgetBytes <= 0 {
		opts.ReducerBudgetBytes = defaultReducerBudget
	}
	if src.Chunks() == 0 {
		return nil, nil, fmt.Errorf("driver: empty chunk source")
	}
	sample, err := fitSample(src, opts.Scheme, opts.Partitions)
	if err != nil {
		return nil, nil, err
	}
	dim := sample.Dim()

	ctx, rootSpan := telemetry.StartSpan(ctx, fmt.Sprintf("skyline-stream:%s", opts.Scheme),
		telemetry.A("scheme", fmt.Sprint(opts.Scheme)),
		telemetry.A("chunks", src.Chunks()),
		telemetry.A("budget_bytes", opts.ReducerBudgetBytes))
	defer rootSpan.End()

	part, err := partition.New(opts.Scheme, sample, opts.Partitions)
	if err != nil {
		return nil, nil, err
	}
	sample = nil // the job must not pin the sample
	exec := InProcess(mapreduce.ChunkRows(src), PartitionJob(part, nil, dim, 0, opts), dim, 0, opts)
	return TwoJobs(ctx, exec, dim, part, nil, nil, opts)
}

// fitSample walks chunk 0 of src once and keeps the rows a fit of scheme
// reads of it (partition.FitRows), in the order it reads them, so that
// partition.New over the sample is New over the whole chunk while no more of
// the chunk than the sample and one piece is held. Under MR-Grid, whose fit
// bounds every row, the sample is the chunk.
func fitSample(src mapreduce.ChunkSource, scheme partition.Scheme, want int) (points.Set, error) {
	n := src.ChunkLen(0)
	if n <= 0 {
		return nil, fmt.Errorf("driver: chunk 0 is empty")
	}
	rows := partition.FitRows(scheme, n, want)
	// byRow lists the sample's positions in the order of their rows, the
	// order the walk meets them.
	byRow := make([]int, len(rows))
	for k := range byRow {
		byRow[k] = k
	}
	sort.Slice(byRow, func(a, b int) bool { return rows[byRow[a]] < rows[byRow[b]] })
	sample := make(points.Set, len(rows))
	var coords []float64
	d, off, next := 0, 0, 0
	err := src.WalkChunk(0, points.NewBlock(0, 0), func(piece *points.Block) error {
		switch {
		case piece.Len() == 0:
			return nil
		case coords == nil:
			d = piece.Dim()
			coords = make([]float64, len(rows)*d)
		case piece.Dim() != d:
			return fmt.Errorf("a piece of %d-dimensional rows after %d-dimensional ones", piece.Dim(), d)
		}
		for ; next < len(byRow) && rows[byRow[next]] < off+piece.Len(); next++ {
			k := byRow[next]
			p := coords[k*d : (k+1)*d : (k+1)*d]
			copy(p, piece.Row(rows[k]-off))
			sample[k] = p
		}
		off += piece.Len()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("driver: sampling chunk 0: %w", err)
	}
	if off != n || d == 0 {
		return nil, fmt.Errorf("driver: chunk 0 walked %d rows of %d dimensions, its length says %d", off, d, n)
	}
	return sample, nil
}
