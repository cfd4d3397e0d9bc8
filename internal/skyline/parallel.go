package skyline

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/points"
)

// parallelCutoff is the input size below which Parallel runs the flat
// sequential kernel instead of fanning out. Re-measured against the
// signature-pruned window on the 2-vCPU benchmark box (two BlockBNL halves
// side by side plus their merge, versus one BlockBNL): fan-out loses below
// ~4096 points — QWS d=10 0.69 ms sequential vs 1.00 ms at n=1024 and
// 4.08 vs 4.13 ms at n=4096; independent d=6 0.29 vs 0.48 ms and 1.50 vs
// 1.40 ms — and wins from there up (n=16384: 22.0 vs 16.7 ms and 6.6 vs
// 4.6 ms). The unpruned loop broke even at 256: pruning made the halves
// cheap and left the merge, which fan-out adds, as the larger share.
const parallelCutoff = 4096

// normWorkers resolves a caller-supplied worker count: non-positive means
// GOMAXPROCS, and every request is capped at GOMAXPROCS — the kernels are
// pure CPU, so goroutines beyond the core count only add scheduling
// overhead (and on one core they would force the tournament merge, which
// does strictly more comparisons than the sequential fold).
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
// partial skylines are folded by the parallel merge tree — the
// divide-and-merge structure of the MapReduce pipeline without the
// framework, useful as a single-machine fast path and as a baseline when
// measuring the engine's overhead. workers ≤ 0 selects GOMAXPROCS.
func Parallel(s points.Set, workers int) points.Set {
	return ParallelCtx(context.Background(), s, workers)
}

// ParallelCtx is Parallel with a context: a telemetry tracer in ctx
// receives one span per merge-tree level.
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

// ParallelBlock is the flat-path core shared by ParallelCtx and the
// merging-job reducers: chunk the block across workers goroutines, run
// the block BNL on each chunk, then fold the partial skylines with the
// parallel merge tree. The input block is read, never mutated.
func ParallelBlock(ctx context.Context, src *points.Block, workers int) *points.Block {
	workers = normWorkers(workers)
	n := src.Len()
	if workers == 1 || n < 2*workers || n < parallelCutoff {
		return BlockBNL(src)
	}
	chunk := (n + workers - 1) / workers
	partials := make([]*points.Block, 0, workers)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		partials = append(partials, src.Slice(lo, hi))
	}
	var wg sync.WaitGroup
	for i, part := range partials {
		wg.Add(1)
		go func(i int, part *points.Block) {
			defer wg.Done()
			partials[i] = BlockBNL(part)
		}(i, part)
	}
	wg.Wait()
	return mergeTree(ctx, partials, workers)
}
