package skyline

import (
	"context"
	"runtime"

	"repro/internal/fan"
	"repro/internal/points"
	"repro/internal/telemetry"
)

// parallelCutoff is the input size below which Parallel runs the flat
// sequential kernel instead of fanning out: two BlockBNL halves side by
// side plus their merge, versus one BlockBNL. What fan-out adds is the
// merge, whose cost depends on how much of the input is skyline — which
// nothing knows before the kernels have run. With the filter as the merge,
// two workers, 2-vCPU benchmark box: on input that is mostly skyline (the
// union of a job's local skylines) fan-out wins 2× from a few thousand rows
// — 13 k QWS d=10 rows 53 ms vs 73–84 sequential, 8.9 k independent d=6
// 22–26 vs 47; on raw input, whose rows mostly die inside the halves
// (BenchmarkCutoffs), it loses up to 1.4× of a few milliseconds between 4 k
// and ~30 k rows (n=16384: independent 5.6–6.4 vs 4.3–4.4 ms,
// anti-correlated d=4 2.4–2.7 vs 1.9–2.1, QWS level at 19–22) and wins from
// 32768 up (QWS 34–41 vs 45–49). Two partials are the filter's worst case:
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
// partial skylines are merged by the shared filter — the divide-and-merge
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
// across workers goroutines, run the block BNL on each chunk, then filter
// the partial skylines against each other. The input block is read, never
// mutated.
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
	merged, _ := mergeBlocks(ctx, partials, workers) // chunks of one block: one dimension, and rows
	return merged
}

// mergeBlocks filters partial skylines — each the exact skyline of its own
// chunk — down to the skyline of their union on workers goroutines (see
// filter.go). The error is NewFilter's.
func mergeBlocks(ctx context.Context, partials []*points.Block, workers int) (*points.Block, error) {
	_, span := telemetry.StartSpan(ctx, "merge-filter", telemetry.A("blocks", len(partials)))
	defer span.End()
	f, err := NewFilter(partials, 0, workers)
	if err != nil {
		return nil, err
	}
	span.SetAttr("rows", f.Len())
	return f.Survivors(workers), nil
}

// MergeSkylines merges partial skylines (each the exact skyline of its own
// chunk) into the global skyline with the shared filter on workers
// goroutines. workers ≤ 0 selects GOMAXPROCS; a tracer in ctx receives the
// merge's span. Partials of mixed dimensionality fall back to the classic
// sequential merge, which tolerates them. Partials that are not genuine
// skylines still merge exactly — the filter tests every row against every
// other — only slower than Parallel would.
func MergeSkylines(ctx context.Context, partials []points.Set, workers int) points.Set {
	blocks := make([]*points.Block, len(partials))
	rows, flat := 0, true
	for i, s := range partials {
		var ok bool
		blocks[i], ok = points.BlockOf(s)
		flat = flat && ok
		rows += len(s)
	}
	if rows == 0 {
		return points.Set{}
	}
	if flat {
		if merged, err := mergeBlocks(ctx, blocks, normWorkers(workers)); err == nil {
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
