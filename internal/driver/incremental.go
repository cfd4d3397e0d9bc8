package driver

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/telemetry"
)

// Index supports the paper's incremental scenario (§II): when a new
// service is registered, only its partition's local skyline is updated and
// the global skyline is folded incrementally — no full recompute over the
// whole service registry.
//
// Concurrency model (the serving core): the entire queryable state lives
// in an immutable epochState behind one atomic pointer. Readers — Global,
// View, Explain, LocalSkyline, Size, Save — do a single atomic load and
// then work on frozen data; they never block, never take a lock, and can
// never observe a half-installed update, because an epoch is built in
// full before the pointer swings. Writers serialize on ix.mu, fold a
// batch of publishes copy-on-write (touched local skylines and the global
// are replaced, untouched ones are shared with the previous epoch), and
// install exactly one new epoch per batch. A batch is whatever publishes
// queued while the fold before it ran (group commit, see submit).
//
// An Index is safe for concurrent use.
type Index struct {
	scheme partition.Scheme
	part   partition.Partitioner
	dim    int

	state atomic.Pointer[epochState]

	// mu is the write domain: it serializes batch folds but is never
	// taken by readers.
	mu       sync.Mutex
	onCommit func(Commit)

	// wmu guards waiting, the publishes queued for the next batch. It is
	// held only to append or to swap the list out, never across a fold.
	wmu     sync.Mutex
	waiting []*pending
}

// epochState is one immutable version of the index. Nothing reachable
// from an installed epochState is ever mutated.
type epochState struct {
	epoch  uint64
	locals []points.Set // local skyline by partition id
	global points.Set
}

// Commit describes one installed epoch to the onCommit observer.
type Commit struct {
	// Epoch is the just-installed version number.
	Epoch uint64
	// Entered holds the batch points that entered the global skyline —
	// the only publishes that can change any query result, which makes
	// this the exact invalidation signal for result caches (a dominated
	// publish changes nothing a reader can see).
	Entered points.Set
}

// View is a consistent, immutable snapshot of the index at one epoch.
// Everything reachable from a View is frozen: callers may read the
// returned sets freely but must not mutate them. Acquiring a View costs
// one atomic load.
type View struct {
	st *epochState
}

// Epoch returns the snapshot's version number.
func (v View) Epoch() uint64 { return v.st.epoch }

// Global returns the snapshot's global skyline without copying. The set
// is immutable; callers needing to mutate must Clone.
func (v View) Global() points.Set { return v.st.global }

// Local returns one partition's local skyline without copying (nil for
// an unknown or empty partition). Immutable; Clone before mutating.
func (v View) Local(id int) points.Set {
	if id < 0 || id >= len(v.st.locals) {
		return nil
	}
	return v.st.locals[id]
}

// Partitions returns the number of shard slots in the snapshot.
func (v View) Partitions() int { return len(v.st.locals) }

// Size returns the total points retained across local skylines — the
// working-set size of the incremental index at this epoch.
func (v View) Size() int {
	n := 0
	for _, ls := range v.st.locals {
		n += len(ls)
	}
	return n
}

// locals returns the non-empty local skylines as a partition-id map —
// the shape ExplainMerge and the snapshot writer consume.
func (v View) locals() map[int]points.Set {
	out := make(map[int]points.Set, len(v.st.locals))
	for id, ls := range v.st.locals {
		if len(ls) > 0 {
			out[id] = ls
		}
	}
	return out
}

// BuildIndex computes an initial index with the given options. The
// partitioner is fitted once on the initial data — the index keeps the one
// its initial job ran on; later additions outside
// the fitted bounds are clamped into boundary partitions (see package
// partition), which keeps results correct, merely less balanced.
func BuildIndex(ctx context.Context, data points.Set, opts Options) (*Index, error) {
	global, stats, part, err := compute(ctx, data, 0, opts)
	if err != nil {
		return nil, err
	}
	local := make(map[int]points.Set, len(stats.LocalSkylines))
	for id, ls := range stats.LocalSkylines {
		local[id] = ls.Clone()
	}
	ix := &Index{
		scheme: opts.Scheme,
		part:   part,
		dim:    data.Dim(),
	}
	ix.install(1, local, global.Clone())
	return ix, nil
}

// install builds and publishes an epochState from a partition-id → local
// skyline map. Used at construction and restore time only; live updates
// go through foldBatch. The table holds at least Partitions() slots, so
// every id Assign returns has one, and more when a restored snapshot
// carries more partitions than the options; ids must not be negative.
func (ix *Index) install(epoch uint64, local map[int]points.Set, global points.Set) {
	n := ix.part.Partitions()
	for id := range local {
		if id >= n {
			n = id + 1
		}
	}
	locals := make([]points.Set, n)
	for id, ls := range local {
		locals[id] = ls
	}
	ix.state.Store(&epochState{epoch: epoch, locals: locals, global: global})
}

// View returns the current epoch snapshot: one atomic load, no locks, no
// copying. This is the high-QPS read path.
func (ix *Index) View() View {
	return View{st: ix.state.Load()}
}

// Epoch returns the current epoch number.
func (ix *Index) Epoch() uint64 { return ix.state.Load().epoch }

// SetOnCommit installs an observer invoked once per installed epoch,
// under the write lock (callbacks arrive in epoch order) and before any
// publish of that batch is acknowledged — so by the time an Add returns,
// the observer has seen its commit. Used by the registry's query cache
// for dominance-aware invalidation. Call before serving traffic.
func (ix *Index) SetOnCommit(fn func(Commit)) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.onCommit = fn
}

// Global returns the current global skyline (a copy). The read costs no
// dominance work — the global is maintained incrementally on Add — so a
// context query record, when present, is annotated with the cached path.
// Lock-free callers that can honor the no-mutation contract should
// prefer View().Global().
func (ix *Index) Global() points.Set {
	return ix.GlobalContext(context.Background())
}

// GlobalContext is Global with per-query attribution: a query record in
// ctx (telemetry.WithQueryStats) is annotated with the cached path and
// the result cardinality.
func (ix *Index) GlobalContext(ctx context.Context) points.Set {
	qs := telemetry.QueryStatsFrom(ctx)
	start := time.Now()
	sky := ix.state.Load().global.Clone()
	qs.SetPath("cached")
	qs.AddCost(0, int64(len(sky)), 0)
	qs.AddStage("snapshot", time.Since(start))
	return sky
}

// Explain bypasses the maintained global skyline: it re-merges the local
// skylines with the instrumented merge, returning both the skyline and
// the per-partition plan breakdown (candidates, dominance tests,
// survivors, stage timings). A query record in ctx is annotated with the
// merge path and the plan's totals. The result is identical to Global()
// — the pinned equivalence every explained query re-proves. The merge
// runs entirely on an epoch snapshot, so it blocks no publisher.
func (ix *Index) Explain(ctx context.Context) (points.Set, *Explain) {
	qs := telemetry.QueryStatsFrom(ctx)

	start := time.Now()
	v := ix.View()
	local := v.locals()
	snapshot := time.Since(start)

	start = time.Now()
	sky, ex := ExplainMerge(ix.scheme.String(), local)
	merge := time.Since(start)

	ex.Stages = []telemetry.StageTiming{
		{Stage: "snapshot", Seconds: snapshot.Seconds()},
		{Stage: "merge", Seconds: merge.Seconds()},
	}
	qs.SetPath("merge")
	qs.AddCost(ex.PartitionsProbed, ex.Candidates, ex.DominanceTests)
	qs.AddStage("snapshot", snapshot)
	qs.AddStage("merge", merge)
	return sky.Clone(), ex
}

// LocalSkyline returns a copy of one partition's local skyline.
func (ix *Index) LocalSkyline(id int) points.Set {
	return ix.View().Local(id).Clone()
}

// Add registers a new service point: it is placed into its partition, the
// local skyline of only that partition is updated, and the point is
// folded into the global skyline. It returns the partition the point was
// assigned to and whether the point survived into the new global skyline.
// Concurrent Adds share batches (group commit, see submit); Add returns
// once its batch's epoch is installed, so an acknowledged publish is
// visible to every later View.
func (ix *Index) Add(p points.Point) (partitionID int, inGlobal bool, err error) {
	return ix.AddContext(context.Background(), p)
}

// AddContext is Add with per-query attribution: a query record in ctx is
// annotated with the one partition touched, the candidates scanned (the
// shard's local skyline plus — for shard survivors — the global), and
// the exact dominance tests the fold spent on this point.
func (ix *Index) AddContext(ctx context.Context, p points.Point) (partitionID int, inGlobal bool, err error) {
	qs := telemetry.QueryStatsFrom(ctx)
	start := time.Now()
	res := ix.submit(p)
	if res.err != nil {
		return 0, false, res.err
	}
	qs.SetPath("update")
	qs.AddCost(1, res.candidates, res.tests)
	qs.AddStage("update", time.Since(start))
	return res.partition, res.inGlobal, nil
}

// submit publishes one point and waits for its batch to commit. It is
// leader/follower group commit on the callers' own goroutines: a publish
// appends itself to ix.waiting, and the one that finds the list empty
// leads the next batch — it waits out the fold before it on ix.mu, swaps
// out everything that queued meanwhile (itself included), folds it as one
// epoch and wakes each publish of the batch. Followers only wait on their
// own channel. No caller folds more than one batch, and the list is empty
// again once a leader has swapped it, so the next publish leads the batch
// after.
func (ix *Index) submit(p points.Point) addResult {
	pd := &pending{p: p, done: make(chan struct{})}
	ix.wmu.Lock()
	ix.waiting = append(ix.waiting, pd)
	lead := len(ix.waiting) == 1
	ix.wmu.Unlock()
	if lead {
		ix.commitWaiting()
	}
	<-pd.done
	return pd.res
}

// commitWaiting folds every queued publish as one batch and wakes them
// after its epoch is installed and the commit observer has run.
func (ix *Index) commitWaiting() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.wmu.Lock()
	batch := ix.waiting
	ix.waiting = nil
	ix.wmu.Unlock()
	ix.foldBatch(batch)
	for _, pd := range batch {
		close(pd.done)
	}
}

// pending is one queued publish: the point, its result once the batch is
// folded, and the channel closed when that batch's epoch is installed.
type pending struct {
	p    points.Point
	res  addResult
	done chan struct{}
}

type addResult struct {
	partition  int
	inGlobal   bool
	err        error
	tests      int64
	candidates int64
}

// foldBatch is the single write path: it folds a batch of publishes into
// the current epoch copy-on-write and installs exactly one new epoch.
// Each point updates only its own partition's local skyline — the batch's
// working copy once the batch has touched that partition, the stored one
// before — and then folds into the global skyline, both with addLinear's
// one pass; checking the old global suffices, because any dominator of p
// outside it would itself be dominated by a global member. Each pending's
// result is set before the epoch is installed and the commit observer
// runs, so by the time a publish is woken it is visible to every
// subsequent View and its cache entries are already invalidated. The
// caller holds ix.mu.
func (ix *Index) foldBatch(batch []*pending) {
	cur := ix.state.Load()
	global := cur.global
	working := make(map[int]points.Set) // partition id → batch-local skyline
	var entered points.Set

	for _, pd := range batch {
		id, err := ix.part.Assign(pd.p)
		if err != nil {
			pd.res = addResult{err: fmt.Errorf("driver: incremental add: %w", err)}
			continue
		}
		p := pd.p.Clone()
		local, touched := working[id]
		if !touched {
			local = cur.locals[id]
		}
		newLocal, ok, tests := addLinear(local, p)
		res := addResult{partition: id, tests: tests, candidates: int64(len(local))}
		if ok {
			working[id] = newLocal
			g2, in, gtests := addLinear(global, p)
			res.tests += gtests
			res.candidates += int64(len(global))
			global = g2
			res.inGlobal = in
			if in {
				entered = append(entered, p)
			}
		}
		pd.res = res
	}

	locals := cur.locals
	if len(working) > 0 {
		locals = slices.Clone(locals)
		for id, wl := range working {
			locals[id] = wl
		}
	}
	next := &epochState{epoch: cur.epoch + 1, locals: locals, global: global}
	ix.state.Store(next)
	if ix.onCommit != nil {
		ix.onCommit(Commit{Epoch: next.epoch, Entered: entered})
	}
}

// StartPipeline is a no-op: concurrent Adds group-commit on their own
// goroutines (see submit), so there is nothing to start or drain. It and
// Close stay because the bench harness calls them.
func (ix *Index) StartPipeline(queue, maxBatch int) error { return nil }

// Close is a no-op; see StartPipeline.
func (ix *Index) Close() {}

// Size returns the total number of points retained across local skylines —
// the working-set size of the incremental index.
func (ix *Index) Size() int {
	return ix.View().Size()
}

// Partitions returns the index's planned partition count.
func (ix *Index) Partitions() int {
	return ix.part.Partitions()
}

// Dim returns the index's attribute dimensionality.
func (ix *Index) Dim() int { return ix.dim }
