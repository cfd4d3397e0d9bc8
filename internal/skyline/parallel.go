package skyline

import (
	"context"
	"errors"
	"runtime"

	"repro/internal/fan"
	"repro/internal/points"
	"repro/internal/telemetry"
)

// parallelCutoff is the input size below which Parallel runs the flat
// sequential kernel instead of fanning out: two BlockBNL halves side by
// side plus their merge, versus one BlockBNL. What fan-out adds is the
// merge, whose cost depends on how much of the input is skyline — which
// nothing knows before the kernels have run. Two workers, 2-vCPU
// benchmark box, measured before the merge was cut into sum groups, which
// BenchmarkMergeFilter reads no slower: on input that is mostly skyline (the
// union of a job's local skylines) fan-out wins 2× from a few thousand rows
// — 13 k QWS d=10 rows 53 ms vs 73–84 sequential, 8.9 k independent d=6
// 22–26 vs 47; on raw input, whose rows mostly die inside the halves
// (BenchmarkCutoffs), it loses up to 1.4× of a few milliseconds between 4 k
// and ~30 k rows (n=16384: independent 5.6–6.4 vs 4.3–4.4 ms,
// anti-correlated d=4 2.4–2.7 vs 1.9–2.1, QWS level at 19–22) and wins from
// 32768 up (QWS 34–41 vs 45–49). Two partials are the merge's worst case:
// half of what a row meets is its own partial, which cannot dominate it.
const parallelCutoff = 4096

// normWorkers resolves a caller-supplied worker count: non-positive means
// GOMAXPROCS, and every request is capped at GOMAXPROCS — the kernels are
// pure CPU, so goroutines beyond the core count only add scheduling
// overhead.
func normWorkers(workers int) int {
	g := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > g {
		return g
	}
	return workers
}

// Parallel computes the skyline on shared memory with `workers`
// goroutines: the input is copied into one flat block, each chunk's
// skyline is computed concurrently with the block BNL kernel, and the
// partial skylines are merged as the merging job merges — the divide-and-merge
// structure of the MapReduce pipeline without the framework, useful as a
// single-machine fast path and as a baseline when measuring the engine's
// overhead. workers ≤ 0 selects GOMAXPROCS.
func Parallel(s points.Set, workers int) points.Set {
	return ParallelCtx(context.Background(), s, workers)
}

// ParallelCtx is Parallel with a context: a telemetry tracer in ctx
// receives the merge's span.
func ParallelCtx(ctx context.Context, s points.Set, workers int) points.Set {
	workers = normWorkers(workers)
	if workers == 1 || len(s) < 2*workers || len(s) < parallelCutoff {
		return FlatBNL(s)
	}
	src, ok := points.BlockOf(s)
	if !ok {
		// Mixed dimensionalities: only the classic kernels handle them.
		return BNL(s)
	}
	return ParallelBlock(ctx, src, workers).ToSet()
}

// ParallelBlock is the flat-path core of ParallelCtx: chunk the block
// across workers goroutines, run the block BNL on each chunk, then merge
// the partial skylines as the merging job does. The input block is read,
// never mutated.
func ParallelBlock(ctx context.Context, src *points.Block, workers int) *points.Block {
	workers = normWorkers(workers)
	n := src.Len()
	if workers == 1 || n < 2*workers || n < parallelCutoff {
		return BlockBNL(src)
	}
	chunk := (n + workers - 1) / workers
	partials := make([]*points.Block, 0, workers)
	for lo := 0; lo < n; lo += chunk {
		partials = append(partials, src.Slice(lo, min(lo+chunk, n)))
	}
	fan.Out(len(partials), func(i int) { partials[i] = BlockBNL(partials[i]) })
	merged, _ := mergeBlocks(ctx, partials, src.Dim(), workers) // chunks of one block: one dimension, and rows
	return merged
}

// mergeBlocks merges partial skylines of dim dimensions down to the skyline
// of their union on workers goroutines: the merging job's groups and tasks
// (filter.go), a group a goroutine, cut by Sorted.Cut, the blocks they
// return joined in group order. The error is Sort's, or a task's.
func mergeBlocks(ctx context.Context, partials []*points.Block, dim, workers int) (*points.Block, error) {
	_, span := telemetry.StartSpan(ctx, "merge", telemetry.A("blocks", len(partials)))
	defer span.End()
	s, err := Sort(partials, dim, workers)
	if err != nil {
		return nil, err
	}
	span.SetAttr("rows", s.Rows.Len())
	ends := s.Cut(workers)
	outs, errs := make([]*points.Block, len(ends)), make([]error, len(ends))
	fan.Out(len(ends), func(g int) {
		outs[g], _, _, errs[g] = MergeTask(stream(s.Input(ends, g, 0)), dim, 0)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, out := range outs[1:] {
		outs[0].AppendBlock(out)
	}
	return outs[0], nil
}

// stream is the input of a merge task that holds its blocks: each handed
// them in order, up to the first error.
func stream(in []*points.Block) func(each func(*points.Block) error) error {
	return func(each func(*points.Block) error) error {
		for _, blk := range in {
			if err := each(blk); err != nil {
				return err
			}
		}
		return nil
	}
}

// MergeSkylines merges partial skylines (each the exact skyline of its own
// chunk) into the global skyline with the merging job's groups on workers
// goroutines. workers ≤ 0 selects GOMAXPROCS; a tracer in ctx receives the
// merge's span. Partials of mixed dimensionality fall back to the classic
// sequential merge, which tolerates them. Partials that are not genuine
// skylines still merge exactly — every group is killed by its own rows
// too — only slower than Parallel would.
func MergeSkylines(ctx context.Context, partials []points.Set, workers int) points.Set {
	blocks := make([]*points.Block, len(partials))
	rows, flat, dim := 0, true, 0
	for i, s := range partials {
		var ok bool
		blocks[i], ok = points.BlockOf(s)
		flat = flat && ok
		if ok && len(s) > 0 && dim == 0 {
			dim = blocks[i].Dim()
		}
		rows += len(s)
	}
	if rows == 0 {
		return points.Set{}
	}
	if flat {
		if merged, err := mergeBlocks(ctx, blocks, dim, normWorkers(workers)); err == nil {
			return merged.ToSet()
		}
	}
	// Mixed dimensionality, inside a partial or between two.
	var union points.Set
	for _, s := range partials {
		union = append(union, s...)
	}
	return BNL(union)
}
