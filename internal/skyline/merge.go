package skyline

// The parallel merge tree. The paper funnels every local skyline through a
// single reducer (one sequential BNL over the union); Ciaccia &
// Martinenghi and Goodrich et al. both observe that the merge round itself
// parallelizes. This file implements a tournament tree over partial
// skylines with two pairwise-merge strategies:
//
//   - seeded BNL (MergeBlocks): the window starts as the larger side and
//     the smaller side streams through it — half the comparisons of a
//     naive cross-filter, and evictions shrink the window as the merge
//     proceeds. Used when a pair is small or no spare workers exist.
//
//   - parallel cross-filter (mergeBlocksParallel): each side's rows are
//     filtered against the whole other side, split across goroutines.
//     More total comparisons than seeded BNL but embarrassingly parallel,
//     which is what the upper tree levels need: the root level has one
//     pair and would otherwise run on one core.
//
// mergeTree divides the worker budget by the level's pair count, so the
// leaf levels parallelize across pairs and the root parallelizes inside
// its single pair. Each level records a "merge-level" telemetry span so
// Fig. 6-style breakdowns see where merge time goes.

import (
	"context"
	"sort"
	"sync"

	"repro/internal/points"
	"repro/internal/telemetry"
)

// parallelMergeCutoff is the |A|·|B| comparison volume below which a
// pairwise merge stays a seeded BNL even when spare workers exist. The
// cross-filter signs both sides and can prune a pair only in the one
// direction it tests, so it does more than twice the seeded merge's work
// and must win it back in parallel. Re-measured against the
// signature-pruned window with 2 workers: QWS d=10 at 1354×1464 (2.0 M)
// seeded 4.2 ms vs cross 5.0 ms, at 5688×5755 (33 M) 39 vs 21 ms;
// independent d=6 at 1360×1355 (1.8 M) 3.4 vs 3.6 ms, at 2769×3033
// (8.4 M) 9.7 vs 7.0 ms. The unpruned loop broke even at 1<<14.
const parallelMergeCutoff = 1 << 22

// MergeBlocks merges two partial skylines into one with a seeded BNL:
// the window starts as the larger side, the smaller side streams through
// it. Both inputs must already be skylines of their own chunks and share
// one dimension; coordinate-equal duplicates across the two sides are all
// retained, matching BNL's classical duplicate behaviour. Neither input
// is mutated.
func MergeBlocks(a, b *points.Block) *points.Block {
	if a.Len() == 0 {
		return b
	}
	if b.Len() == 0 {
		return a
	}
	if a.Len() < b.Len() {
		a, b = b, a
	}
	win := windowOver(a.Clone())
	bn := b.Len()
	for i := 0; i < bn; i++ {
		win.add(b.Row(i))
	}
	win.publish()
	return win.rows
}

// foldBlocks merges partial skylines sequentially with one shared BNL
// window, streaming the union in ascending monotone-sum order. The presort
// sends the strongest dominators through first, so rows destined to die do
// so within a few tests and window evictions all but vanish — on
// union-of-skylines input this roughly halves the fold's wall time versus
// streaming in partial order. Unlike a pure SFS filter the eviction logic
// stays, so floating-point ties in the sum key can never admit a dominated
// row. The window's thresholds are fitted once, to the whole union: fitted
// to its own rows it would, in this order, know only the smallest ones
// (QWS d=10, 16 partials: the fold took 157 ms so, 70 ms fitted to the
// union; independent d=6 13 ms either way).
func foldBlocks(parts []*points.Block) *points.Block {
	total := 0
	for _, part := range parts {
		total += part.Len()
	}
	u := points.NewBlock(parts[0].Dim(), total)
	for _, part := range parts {
		u.AppendBlock(part)
	}
	n := u.Len()
	keys := make([]float64, n)
	order := make([]int, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for _, v := range u.Row(i) {
			s += v
		}
		keys[i] = s
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	win := newWindow(u.Dim(), 16)
	if u.Len() >= firstFit {
		win.fit(u)
	}
	for _, i := range order {
		win.add(u.Row(i))
	}
	win.publish()
	return win.rows
}

// filterRows appends to out the rows of src in [lo, hi) not strictly
// dominated by any row of against, and returns the dominance-test count.
// src and against are skylines of disjoint chunks, so within-side
// dominance cannot occur and the two directions are independent.
func filterRows(src *points.Block, lo, hi int, against *window, rel relFunc, out *points.Block) int64 {
	tests := int64(0)
	for i := lo; i < hi; i++ {
		p := src.Row(i)
		dominated, n := against.dominates(p, rel)
		tests += n
		if !dominated {
			out.AppendRow(p)
		}
	}
	return tests
}

// mergeBlocksParallel is the worker-rich pairwise merge: both sides'
// survivors are computed as independent cross-filters, each side split
// across goroutines. workers is the budget for this one pair.
func mergeBlocksParallel(a, b *points.Block, workers int) *points.Block {
	if workers <= 1 || a.Len()*b.Len() < parallelMergeCutoff {
		return MergeBlocks(a, b)
	}
	return crossFilter(a, b, workers)
}

// crossFilter returns the rows of each side that no row of the other side
// dominates, filtering in workers goroutines. Both sides are non-empty.
func crossFilter(a, b *points.Block, workers int) *points.Block {
	rel := RelationKernel(a.Dim())
	// One shard per worker, allotted to the two sides by their share of
	// the total rows (each side needs at least one shard).
	total := a.Len() + b.Len()
	aShards := workers * a.Len() / total
	if aShards < 1 {
		aShards = 1
	}
	if aShards >= workers {
		aShards = workers - 1
	}
	bShards := workers - aShards
	type shard struct {
		src     *points.Block
		against *window
		lo, hi  int
		out     *points.Block
	}
	shards := make([]shard, 0, workers)
	plan := func(src *points.Block, against *window, n int) {
		size := (src.Len() + n - 1) / n
		for lo := 0; lo < src.Len(); lo += size {
			hi := lo + size
			if hi > src.Len() {
				hi = src.Len()
			}
			shards = append(shards, shard{src: src, against: against, lo: lo, hi: hi,
				out: points.NewBlock(src.Dim(), hi-lo)})
		}
	}
	// Each side is signed once and then only read, by every shard that
	// filters against it.
	plan(a, windowOver(b), aShards)
	plan(b, windowOver(a), bShards)
	var wg sync.WaitGroup
	tests := make([]int64, len(shards))
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := &shards[i]
			tests[i] = filterRows(s.src, s.lo, s.hi, s.against, rel, s.out)
		}(i)
	}
	wg.Wait()
	out := points.NewBlock(a.Dim(), a.Len()+b.Len())
	var sum int64
	for i := range shards {
		out.AppendBlock(shards[i].out)
		sum += tests[i]
	}
	dominanceTests.Add(sum)
	return out
}

// mergeTree folds partial skyline blocks pairwise — level 0 merges
// neighbours, level 1 merges the results, and so on until one block
// remains. Every level splits the worker budget over its pairs: many
// small merges run side by side at the leaves, and the root's single
// merge fans its cross-filter across the whole budget instead of
// serializing on one core.
//
// With a budget of one worker the tournament is strictly worse than a
// left fold: each point then streams through log₂(k) windows instead of
// one, with no parallelism to pay for the repeat visits. So workers == 1
// degenerates to a sequential seeded-BNL fold (one span, one level) —
// exactly a flat BNL over the union, which is the fastest single-core
// merge we have.
func mergeTree(ctx context.Context, parts []*points.Block, workers int) *points.Block {
	if len(parts) == 0 {
		return points.NewBlock(0, 0)
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 && len(parts) > 1 {
		_, span := telemetry.StartSpan(ctx, "merge-level",
			telemetry.A("level", 0),
			telemetry.A("blocks", len(parts)))
		acc := foldBlocks(parts)
		span.End()
		return acc
	}
	for level := 0; len(parts) > 1; level++ {
		_, span := telemetry.StartSpan(ctx, "merge-level",
			telemetry.A("level", level),
			telemetry.A("blocks", len(parts)))
		pairs := len(parts) / 2
		perPair := workers / pairs
		if perPair < 1 {
			perPair = 1
		}
		next := make([]*points.Block, (len(parts)+1)/2)
		var wg sync.WaitGroup
		for i := 0; i+1 < len(parts); i += 2 {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				next[i/2] = mergeBlocksParallel(parts[i], parts[i+1], perPair)
			}(i)
		}
		wg.Wait()
		if len(parts)%2 == 1 {
			next[len(next)-1] = parts[len(parts)-1]
		}
		parts = next
		span.End()
	}
	return parts[0]
}

// MergeSkylines merges partial skylines (each the exact skyline of its own
// chunk, all of one dimension) into the global skyline with the parallel
// merge tree. workers ≤ 0 selects GOMAXPROCS; a tracer in ctx receives one
// span per merge level. Partials that are not genuine skylines of disjoint
// chunks yield undefined results — use Parallel for arbitrary input.
func MergeSkylines(ctx context.Context, partials []points.Set, workers int) points.Set {
	blocks := make([]*points.Block, 0, len(partials))
	for _, s := range partials {
		if len(s) == 0 {
			continue
		}
		b, ok := points.BlockOf(s)
		if !ok {
			// Mixed dimensionality: fall back to the classic sequential
			// merge, which tolerates it.
			var union points.Set
			for _, p := range partials {
				union = append(union, p...)
			}
			return BNL(union)
		}
		blocks = append(blocks, b)
	}
	if len(blocks) == 0 {
		return points.Set{}
	}
	return mergeTree(ctx, blocks, normWorkers(workers)).ToSet()
}
