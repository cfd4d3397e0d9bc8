package driver

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// canonicalSet renders a point set as sorted hex rows for multiset
// comparison.
func canonicalSet(s points.Set) []string {
	rows := make([]string, len(s))
	for i, p := range s {
		rows[i] = fmt.Sprintf("%x", []float64(p))
	}
	sort.Strings(rows)
	return rows
}

// TestComputeStreamOracle: the out-of-core pipeline over a chunk source
// must produce exactly the in-memory pipeline's skyline over the
// materialized equivalent, under both a generous and a tiny reducer
// budget (the latter forcing multi-pass folds and, where the local
// skylines outgrow it, a merge round of budget-sized groups).
func TestComputeStreamOracle(t *testing.T) {
	const n, d = 6000, 4
	for _, kind := range []dataset.Kind{dataset.KindAnticorrelated, dataset.KindCorrelated} {
		src, err := dataset.NewSource(kind, 11, n, d, 500)
		if err != nil {
			t.Fatal(err)
		}
		// Materialize the same rows for the oracle.
		var data points.Set
		if err := src.Stream(func(blk *points.Block) error {
			data = append(data, blk.ToSet()...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		oracle, _, err := Compute(context.Background(), data,
			Options{Scheme: partition.Angular, Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := canonicalSet(oracle)

		for _, tc := range []struct {
			name   string
			budget int64
		}{
			{"ample", 1 << 24},
			{"tiny", d * 8 * 16}, // 16-row windows force spill passes
		} {
			t.Run(fmt.Sprintf("%s-%s", kind, tc.name), func(t *testing.T) {
				rec := telemetry.NewRecorder("stream-test")
				ctx := telemetry.WithRecorder(context.Background(), rec)
				got, stats, err := ComputeStream(ctx, src, Options{
					Scheme: partition.Angular, Nodes: 2,
					SpillDir:           t.TempDir(),
					Codec:              points.FrameAuto,
					ReducerBudgetBytes: tc.budget,
				})
				if err != nil {
					t.Fatalf("ComputeStream: %v", err)
				}
				gotRows := canonicalSet(got)
				if len(gotRows) != len(want) {
					t.Fatalf("skyline size %d, want %d", len(gotRows), len(want))
				}
				for i := range want {
					if gotRows[i] != want[i] {
						t.Fatalf("skyline row %d differs", i)
					}
				}
				if stats.ReducerPeakBytes <= 0 {
					t.Fatal("ReducerPeakBytes not recorded")
				}
				size := int64(stats.LocalSkylineTotal()) * d * 8
				if over := size > tc.budget; over != (stats.MergeRounds == 1) || over != (stats.MergeGroups >= 2) || stats.MergeRounds > 1 {
					t.Fatalf("%d candidate bytes under a %d-byte budget ran %d merge rounds of %d groups", size, tc.budget, stats.MergeRounds, stats.MergeGroups)
				}
				if len(stats.MergeRoundBytes) != stats.MergeRounds {
					t.Fatalf("MergeRoundBytes len %d != rounds %d",
						len(stats.MergeRoundBytes), stats.MergeRounds)
				}
				total := 0
				for _, c := range stats.PartitionCounts {
					total += c
				}
				if total != n {
					t.Fatalf("partition counts sum %d, want %d", total, n)
				}
				rep := rec.Report()
				if rep.MergeRounds != stats.MergeRounds {
					t.Fatalf("recorder rounds %d, stats %d", rep.MergeRounds, stats.MergeRounds)
				}
				if rep.ReducerPeakBytes != stats.ReducerPeakBytes {
					t.Fatalf("recorder peak %d, stats %d", rep.ReducerPeakBytes, stats.ReducerPeakBytes)
				}
				if kind == dataset.KindAnticorrelated && tc.budget < 1<<12 && stats.MergePasses < 2 {
					t.Fatalf("tiny budget on anticorrelated resolved in %d pass(es)", stats.MergePasses)
				}
			})
		}
	}
}

// TestComputeBudgetedOracle: Compute with a reducer budget must match
// unbudgeted Compute exactly.
func TestComputeBudgetedOracle(t *testing.T) {
	data := dataset.Anticorrelated(5, 3000, 4)
	want, _, err := Compute(context.Background(), data,
		Options{Scheme: partition.Angular, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1 << 24, 4 * 8 * 16} {
		got, stats, err := Compute(context.Background(), data, Options{
			Scheme: partition.Angular, Nodes: 2,
			SpillDir:           t.TempDir(),
			Codec:              points.FrameAuto,
			ReducerBudgetBytes: budget,
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		w, g := canonicalSet(want), canonicalSet(got)
		if len(w) != len(g) {
			t.Fatalf("budget %d: skyline size %d, want %d", budget, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("budget %d: row %d differs", budget, i)
			}
		}
		if stats.ReducerPeakBytes <= 0 {
			t.Fatalf("budget %d: peak not recorded", budget)
		}
	}
}

// given is TwoJobs' in-process executor with Job 1 replaced by its result:
// blocks, as partitions 0, 1, …, are the local skylines the merge is handed.
type given struct {
	Executor
	blocks []*points.Block
}

func (g given) Partition(context.Context) (*mapreduce.FrameResult, error) {
	res := &mapreduce.FrameResult{Blocks: map[int]*points.Block{}, Counters: mapreduce.NewCounters()}
	for id, blk := range g.blocks {
		res.Blocks[id] = blk
	}
	return res, nil
}

// mergeGiven is TwoJobs' merge of candidates on InProcess: one merge round
// of budget-sized groups when the candidates exceed opts.ReducerBudgetBytes.
// Nothing but the merge reports a peak.
func mergeGiven(ctx context.Context, candidates []*points.Block, dim int, opts Options) (points.Set, *Stats, error) {
	opts = opts.withDefaults()
	part, err := partition.NewRandom(dim, max(len(candidates), 1))
	if err != nil {
		return nil, nil, err
	}
	exec := given{Executor: InProcess(mapreduce.RowFeed{}, mapreduce.FrameJob{}, dim, 0, opts), blocks: candidates}
	return TwoJobs(ctx, exec, dim, part, nil, nil, opts)
}

// roundTasks counts the finished map-task spans of the merge's round: those
// under a merge-round span.
func roundTasks(tr *telemetry.Tracer) int {
	spans := tr.Spans()
	byID := make(map[uint64]telemetry.SpanData, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	n := 0
	for _, s := range spans {
		if s.Name != "map-task" {
			continue
		}
		for up, ok := byID[s.Parent]; ok; up, ok = byID[up.Parent] {
			if up.Name == "merge-round" {
				n++
				break
			}
		}
	}
	return n
}

// TestMergeScheduleRounds: a budget smaller than the candidate volume
// merges in one round of at least two groups, whose bytes are the
// candidates', and keeps the oracle's rows; the merge's peak stays within
// the budget. With no candidates there is nothing to merge, and no round.
func TestMergeScheduleRounds(t *testing.T) {
	const d = 3
	// 16 candidate "local skylines" of 32 rows each; budget fits ~2 blocks.
	candidates := make([]*points.Block, 16)
	var union points.Set
	for i := range candidates {
		blk := points.NewBlock(d, 32)
		for r := 0; r < 32; r++ {
			// Rows on a shifted anti-diagonal: most survive merging.
			v := float64(r)/32 + float64(i)*1e-4
			blk.AppendRow([]float64{v, 1 - v, float64(i) / 16})
		}
		candidates[i] = blk
		union = append(union, blk.ToSet()...)
	}
	budget := int64(2*32*d*8 + 1)
	opts := Options{SpillDir: t.TempDir(), Codec: points.FrameAuto, ReducerBudgetBytes: budget}
	out, stats, err := mergeGiven(context.Background(), candidates, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := skyline.BNL(union); !reflect.DeepEqual(canonicalSet(out), canonicalSet(want)) {
		t.Fatalf("the blocked round kept %d rows, the oracle %d", len(out), len(want))
	}
	if stats.MergeRounds != 1 || stats.MergeGroups < 2 || !reflect.DeepEqual(stats.MergeRoundBytes, []int64{int64(len(union) * d * 8)}) {
		t.Fatalf("rounds %d of %d groups, bytes %v; want one round of >= 2 groups over all %d candidate bytes",
			stats.MergeRounds, stats.MergeGroups, stats.MergeRoundBytes, len(union)*d*8)
	}
	if stats.ReducerPeakBytes <= 0 || stats.ReducerPeakBytes > budget || stats.MergePasses != 1 {
		t.Fatalf("peak %d in %d passes; want within the %d-byte budget, in one", stats.ReducerPeakBytes, stats.MergePasses, budget)
	}
	// Single empty-candidate edge: nothing to merge, so no round.
	if out, stats, err := mergeGiven(context.Background(), nil, d, opts); err != nil || len(out) != 0 || stats.MergeRounds != 0 {
		t.Fatalf("nil candidates: %d rows, %d rounds, err %v", len(out), stats.MergeRounds, err)
	}
}

// antiBlock is one candidate block of anti-correlated rows — most of them
// survive a merge, so budgeted folds over a few of them overflow.
func antiBlock(seed int64, rows, d int) *points.Block {
	blk, _ := points.BlockOf(dataset.Generate(dataset.KindAnticorrelated, seed, rows, d))
	return blk
}

// countSpans counts the tracer's finished spans of one name.
func countSpans(tr *telemetry.Tracer, name string) int {
	n := 0
	for _, s := range tr.Spans() {
		if s.Name == name {
			n++
		}
	}
	return n
}

// assertNoLeak: nothing is left in the spill directory and the goroutine
// count is back to what it was before the job (exiting goroutines are
// given a moment to finish exiting).
func assertNoLeak(t *testing.T, dir string, goroutines int) {
	t.Helper()
	if left, err := os.ReadDir(dir); err != nil || len(left) > 0 {
		t.Errorf("spill directory after the job: %d entries (first: %v), err %v", len(left), left[:min(len(left), 1)], err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after the job, %d before", runtime.NumGoroutine(), goroutines)
			return
		}
	}
}

// TestMergeScheduleSameForAnyWorkers: running the blocked round's groups
// as concurrent map tasks changes nothing one can observe in the result —
// rows and their order, the round, its groups and bytes, passes and the
// peak (the max over tasks) equal the one-worker run's — under budgets a
// quarter of a candidate block and two blocks (the rows are named for how
// the retired fold rounds packed them: pairwise, and greedily), on input
// where every third candidate duplicates its predecessor. Under a budget
// the candidates fit there is no round, and the groups are one a worker;
// the rows and their order are still the same for any workers.
func TestMergeScheduleSameForAnyWorkers(t *testing.T) {
	const d, rows = 4, 600
	candidates := make([]*points.Block, 9)
	for i := range candidates {
		candidates[i] = antiBlock(int64(100+i-i%3/2), rows, d) // seeds 100 101 101 103 104 104 …
	}
	for _, tc := range []struct {
		name      string
		budget    int64
		rounds    int // -1: not pinned
		multiPass bool
	}{
		{"pairwise", rows * d * 8 / 4, 1, false},
		{"packed", 2*rows*d*8 + 1, 1, false},
		{"one-group", 1 << 24, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want points.Set
			var wantStats *Stats
			for _, workers := range []int{1, 2, 8} {
				tr := telemetry.NewTracer()
				out, stats, err := mergeGiven(telemetry.WithTracer(context.Background(), tr), candidates, d,
					Options{Workers: workers, SpillDir: t.TempDir(), Codec: points.FrameAuto, ReducerBudgetBytes: tc.budget})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := countSpans(tr, "merge-round"); got != stats.MergeRounds {
					t.Errorf("workers=%d: %d merge-round spans for %d rounds", workers, got, stats.MergeRounds)
				}
				if workers == 1 {
					want, wantStats = out, stats
					if tc.rounds >= 0 && stats.MergeRounds != tc.rounds {
						t.Errorf("MergeRounds = %d, want %d", stats.MergeRounds, tc.rounds)
					}
					if (stats.MergePasses > 1) != tc.multiPass {
						t.Errorf("MergePasses = %d, multi-pass wanted: %v", stats.MergePasses, tc.multiPass)
					}
					if tc.rounds != 0 && (stats.ReducerPeakBytes <= 0 || stats.ReducerPeakBytes > tc.budget) {
						t.Errorf("ReducerPeakBytes %d, want within the %d-byte budget", stats.ReducerPeakBytes, tc.budget)
					}
					continue
				}
				if !reflect.DeepEqual(out, want) {
					t.Errorf("workers=%d: rows or their order differ from the one-worker run", workers)
				}
				if tc.rounds == 0 {
					continue
				}
				if stats.MergeRounds != wantStats.MergeRounds || stats.MergeGroups != wantStats.MergeGroups || !reflect.DeepEqual(stats.MergeRoundBytes, wantStats.MergeRoundBytes) ||
					stats.MergePasses != wantStats.MergePasses || stats.ReducerPeakBytes != wantStats.ReducerPeakBytes {
					t.Errorf("workers=%d: rounds %d %v, passes %d, peak %d; one worker %d %v, %d, %d", workers,
						stats.MergeRounds, stats.MergeRoundBytes, stats.MergePasses, stats.ReducerPeakBytes,
						wantStats.MergeRounds, wantStats.MergeRoundBytes, wantStats.MergePasses, wantStats.ReducerPeakBytes)
				}
			}
		})
	}
}

// rowsDigest is a short hash of a point set's rows in their order.
func rowsDigest(s points.Set) string {
	h := sha256.New()
	for _, p := range s {
		for _, v := range p {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestBlockedMergeIsPinned: under a budget below the candidate volume the
// merge is one blocked round, pinned here at 512 B and 4 KiB on the
// in-process executor: the global skyline — the oracle's rows as a multiset,
// and their order, group after group, as a digest — the round's groups and
// candidate bytes, and the merge's peak within the budget (the round alone,
// over the run's local skylines: Job 1's reducers fold under their own
// window and frame scratch). The groups are this merge's cut, and a change to
// it moves them; the digest is the merge's order, (sum, index), the same for
// every cut, and only a change to that order moves it.
func TestBlockedMergeIsPinned(t *testing.T) {
	data := dataset.Anticorrelated(5, 3000, 4)
	oracle := canonicalSet(skyline.BNL(data))
	for _, pin := range []struct {
		budget int64
		digest string
		groups int
	}{
		{512, "fca7105b609d7887", 95},
		{4096, "fca7105b609d7887", 7},
	} {
		dir := t.TempDir()
		opts := Options{Scheme: partition.Angular, Nodes: 2, Workers: 2, SpillDir: dir, Codec: points.FrameAuto, ReducerBudgetBytes: pin.budget}
		got, stats, err := Compute(context.Background(), data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(canonicalSet(got), oracle) || rowsDigest(got) != pin.digest {
			t.Errorf("budget %d: %d rows (oracle %d), digest %s; pinned %s", pin.budget, len(got), len(oracle), rowsDigest(got), pin.digest)
		}
		candidateBytes := int64(stats.LocalSkylineTotal() * 4 * 8)
		if stats.MergeRounds != 1 || stats.MergeGroups != pin.groups || !reflect.DeepEqual(stats.MergeRoundBytes, []int64{candidateBytes}) {
			t.Errorf("budget %d: %d rounds of %d groups, bytes %v; pinned one round of %d groups over %d bytes", pin.budget,
				stats.MergeRounds, stats.MergeGroups, stats.MergeRoundBytes, pin.groups, candidateBytes)
		}
		var candidates []*points.Block
		for id := 0; id < stats.Partitions; id++ {
			if blk, ok := points.BlockOf(stats.LocalSkylines[id]); ok && blk.Len() > 0 {
				candidates = append(candidates, blk)
			}
		}
		alone, round, err := mergeGiven(context.Background(), candidates, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rowsDigest(alone) != pin.digest || round.ReducerPeakBytes <= 0 || round.ReducerPeakBytes > pin.budget || round.MergePasses != 1 {
			t.Errorf("budget %d: the round alone gave digest %s, a peak of %d bytes in %d passes; want %s within the budget in one",
				pin.budget, rowsDigest(alone), round.ReducerPeakBytes, round.MergePasses, pin.digest)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("budget %d: %d files left in the spill directory", pin.budget, len(left))
		}
	}
}

// TestMergeScheduleFailedGroupLeavesNothing: a candidate block of another
// dimension than the merge's fails the blocked round with the layout's
// dimension check, before any group is laid out — no group can hold it —
// and one streamed past a group by a task fails that task with the kill
// walk's; with one worker the tasks after it never start. Nothing is left
// behind: no file, no goroutine.
func TestMergeScheduleFailedGroupLeavesNothing(t *testing.T) {
	const d = 4
	wrongDim := points.NewBlock(d+1, 1)
	wrongDim.AppendRow(make([]float64, d+1))
	candidates := []*points.Block{antiBlock(1, 2000, d), antiBlock(2, 2000, d), antiBlock(3, 2000, d),
		wrongDim, antiBlock(4, 2000, d), antiBlock(5, 2000, d)}
	for _, workers := range []int{1, 2} {
		dir := t.TempDir()
		goroutines := runtime.NumGoroutine()
		tr := telemetry.NewTracer()
		_, _, err := mergeGiven(telemetry.WithTracer(context.Background(), tr), candidates, d,
			Options{Workers: workers, SpillDir: dir, ReducerBudgetBytes: 1024})
		if !errors.Is(err, skyline.ErrCandidates) || !strings.Contains(err.Error(), "5-dimensional rows in a 4-dimensional merge") {
			t.Fatalf("workers=%d: err = %v, want the layout's dimension check", workers, err)
		}
		if folds := roundTasks(tr); folds != 0 {
			t.Errorf("workers=%d: %d groups ran", workers, folds)
		}
		assertNoLeak(t, dir, goroutines)

		// Three tasks, each its group's good input and then the wrong block.
		inputs, err := MergeInput([]*points.Block{antiBlock(6, 50, d)}, d, 3, 0)
		if err != nil || len(inputs) != 3 {
			t.Fatalf("%d inputs, err %v", len(inputs), err)
		}
		for task := range inputs {
			inputs[task] = append(inputs[task], wrongDim)
		}
		job := MergeJob(d, 0)
		job.Feed = mapreduce.WholeInput(inputs)
		tr = telemetry.NewTracer()
		_, err = mapreduce.RunFrames(telemetry.WithTracer(context.Background(), tr), mapreduce.Config{Name: "blocked", Workers: workers}, job)
		if !errors.Is(err, skyline.ErrCandidates) || !strings.Contains(err.Error(), "5-dimensional rows streamed past a 4-dimensional layout") {
			t.Fatalf("workers=%d: err = %v, want the kill walk's dimension check", workers, err)
		}
		if tasks := countSpans(tr, "map-task"); workers == 1 && tasks != 1 {
			t.Errorf("one worker started %d tasks, want 1: the first error stops the tasks after it", tasks)
		}
		assertNoLeak(t, dir, goroutines)
	}
}

// TestMergeScheduleHonoursContext: a cancelled context stops the blocked
// round before its first group, with the context's error.
func TestMergeScheduleHonoursContext(t *testing.T) {
	const d = 4
	candidates := []*points.Block{antiBlock(1, 2000, d), antiBlock(2, 2000, d), antiBlock(3, 2000, d)}
	dir := t.TempDir()
	goroutines := runtime.NumGoroutine()
	tr := telemetry.NewTracer()
	ctx, cancel := context.WithCancel(telemetry.WithTracer(context.Background(), tr))
	cancel()
	out, _, err := mergeGiven(ctx, candidates, d, Options{Workers: 2, SpillDir: dir, ReducerBudgetBytes: 1024})
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("cancelled merge returned rows: %v, err %v; want context.Canceled", out != nil, err)
	}
	if folds := roundTasks(tr); folds != 0 {
		t.Errorf("%d folds ran under a cancelled context", folds)
	}
	assertNoLeak(t, dir, goroutines)
}

// cancelAfterJob1 is a partitioner that cancels the run the first time the
// driver asks for its partition count after every row has been assigned —
// which TwoJobs does between Job 1's return and the merge.
type cancelAfterJob1 struct {
	partition.Partitioner
	rows     int64
	assigned atomic.Int64
	cancel   context.CancelFunc
}

func (c *cancelAfterJob1) Assign(p points.Point) (int, error) {
	c.assigned.Add(1)
	return c.Partitioner.Assign(p)
}

func (c *cancelAfterJob1) Partitions() int {
	if c.assigned.Load() >= c.rows {
		c.cancel()
	}
	return c.Partitioner.Partitions()
}

// TestComputeStreamCancelledBeforeMerge: a run cancelled once Job 1 has
// finished does not lay out a single merge group — the round is entered
// and none of its map tasks starts; it fails with the context's error and
// leaves the spill directory empty.
func TestComputeStreamCancelledBeforeMerge(t *testing.T) {
	const n, d = 8000, 4
	src, err := dataset.NewSource(dataset.KindAnticorrelated, 5, n, d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.New(partition.Angular, dataset.Generate(dataset.KindAnticorrelated, 5, 500, d), 8)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	goroutines := runtime.NumGoroutine()
	tr := telemetry.NewTracer()
	ctx, cancel := context.WithCancel(telemetry.WithTracer(context.Background(), tr))
	defer cancel()
	_, _, err = computeOn(ctx, mapreduce.ChunkRows(src), d, 0, &cancelAfterJob1{Partitioner: part, rows: n, cancel: cancel},
		Options{Scheme: partition.Angular, Nodes: 2, SpillDir: dir, ReducerBudgetBytes: 1024})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if countSpans(tr, "merge-round") != 1 || roundTasks(tr) != 0 {
		t.Errorf("spans: %d merge-round, %d round map tasks; want the first round entered and no group folded",
			countSpans(tr, "merge-round"), roundTasks(tr))
	}
	assertNoLeak(t, dir, goroutines)
}

// countingChunks wraps a chunk source and remembers every distinct block
// WalkChunk was handed, whether each arrived empty, and the longest piece
// the source filled into one.
type countingChunks struct {
	mapreduce.ChunkSource
	mu       sync.Mutex
	blocks   map[*points.Block]int
	nonEmpty int
	longest  int
}

func (c *countingChunks) WalkChunk(i int, blk *points.Block, fn func(*points.Block) error) error {
	c.mu.Lock()
	c.blocks[blk]++
	if blk.Len() != 0 || blk.Dim() != 0 {
		c.nonEmpty++
	}
	c.mu.Unlock()
	return c.ChunkSource.WalkChunk(i, blk, func(piece *points.Block) error {
		c.mu.Lock()
		c.longest = max(c.longest, piece.Len())
		c.mu.Unlock()
		return fn(piece)
	})
}

// TestComputeStreamAllocatesInputOnce: a streamed job holds a piece of a
// chunk, not the chunk. Over bench's stream_ind_d6 shape (16 chunks of
// 62 500 d=6 rows, two workers) no piece the source fills exceeds WalkRows
// rows, the walks use at most Workers+1 distinct blocks — the extra one is
// the fit's walk of chunk 0 — and a steady-state job allocates at most 0.4×
// the input's bytes in total (6.8× when every task append-grew a fresh
// chunk block, ~0.6× while a task held a whole chunk and the fit read
// chunk 0 whole; ~0.33× now). The byte bound means nothing under -race.
func TestComputeStreamAllocatesInputOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row job")
	}
	const n, d, chunks, workers = 1000000, 6, 16, 2
	inner, err := dataset.NewSource(dataset.KindIndependent, 2012, n, d, n/chunks)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scheme: partition.Angular, Nodes: 4, Workers: workers, SpillDir: t.TempDir(),
		Codec: points.FrameAuto, ReducerBudgetBytes: 128 << 10}
	var ms runtime.MemStats
	var allocated uint64
	for job := 0; job < 2; job++ { // the second job is the steady state
		src := &countingChunks{ChunkSource: inner, blocks: map[*points.Block]int{}}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, _, err := ComputeStream(context.Background(), src, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		allocated = ms.TotalAlloc - before
		if len(src.blocks) > workers+1 || src.nonEmpty > 0 {
			t.Errorf("job %d: %d chunk walks went through %d distinct blocks (want <= %d), %d not empty on arrival",
				job, chunks+1, len(src.blocks), workers+1, src.nonEmpty)
		}
		if src.longest > mapreduce.WalkRows {
			t.Errorf("job %d: a piece of %d rows, want <= WalkRows (%d)", job, src.longest, mapreduce.WalkRows)
		}
	}
	input := uint64(n * d * 8)
	t.Logf("steady-state job allocated %d bytes, %.2fx its input", allocated, float64(allocated)/float64(input))
	if !raceEnabled && float64(allocated) > 0.4*float64(input) {
		t.Errorf("steady-state job allocated %d bytes, %.2fx its %d-byte input; want <= 0.4x", allocated, float64(allocated)/float64(input), input)
	}
}

// TestStreamFitIsTheSetFit: the partitioner ComputeStream fits from its
// sample of chunk 0 is the one partition.New fits to chunk 0 materialised —
// the same offset, cuts and bounds, and the same partition for every row of
// the chunk — for every scheme, whether chunk 0 is shorter than the fit's
// sample, as long, or longer (when the sample is a draw, in draw order).
func TestStreamFitIsTheSetFit(t *testing.T) {
	const d, want = 4, 16
	size := max(4096, 64*want)
	for _, scheme := range []partition.Scheme{partition.Angular, partition.Dimensional, partition.Random, partition.Grid} {
		for _, rows := range []int{size/3 + 7, size, 3*size + 5} {
			src, err := dataset.NewSource(dataset.KindAnticorrelated, 13, 2*rows, d, rows)
			if err != nil {
				t.Fatal(err)
			}
			chunk := points.NewBlock(d, rows)
			if err := src.ReadChunk(0, chunk); err != nil {
				t.Fatal(err)
			}
			set := chunk.ToSet()
			wantPart, err := partition.New(scheme, set, want)
			if err != nil {
				t.Fatal(err)
			}
			sample, err := fitSample(src, scheme, want)
			if err != nil {
				t.Fatal(err)
			}
			if wantRows := len(partition.FitRows(scheme, rows, want)); len(sample) != wantRows {
				t.Errorf("%v, %d rows: a sample of %d rows, want %d", scheme, rows, len(sample), wantRows)
			}
			got, err := partition.New(scheme, sample, want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantPart) {
				t.Errorf("%v, %d rows: the streamed fit is %+v, the set's %+v", scheme, rows, got, wantPart)
				continue
			}
			for i, p := range set {
				a, errA := got.Assign(p)
				b, errB := wantPart.Assign(p)
				if a != b || errA != nil || errB != nil {
					t.Fatalf("%v, %d rows: row %d goes to %d (%v), want %d (%v)", scheme, rows, i, a, errA, b, errB)
				}
			}
		}
	}
}

// BenchmarkComputeStream is one streamed job end to end — 200 k
// independent d=6 rows as 16 chunks, 128 KiB reducer budget, FrameAuto,
// spills on — so B/op is what a streamed job allocates. CI prints it, with
// the bytes Job 1 shuffled, the bytes the map-only blocked merge round
// output (the global skyline, once) and the map tasks Job 1 was cut into
// (read off one more, traced, job once the clock has stopped).
func BenchmarkComputeStream(b *testing.B) {
	const n, d = 200000, 6
	src, err := dataset.NewSource(dataset.KindIndependent, 2012, n, d, n/16)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Scheme: partition.Angular, Nodes: 4, Workers: 2, SpillDir: b.TempDir(),
		Codec: points.FrameAuto, ReducerBudgetBytes: 128 << 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ComputeStream(context.Background(), src, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tr := telemetry.NewTracer()
	_, stats, err := ComputeStream(telemetry.WithTracer(context.Background(), tr), src, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(stats.Counters[mapreduce.CounterShuffleBytes]), "shuffle-B/job")
	b.ReportMetric(float64(stats.Counters[mapreduce.CounterOutputBytes]), "output-B/job")
	b.ReportMetric(float64(countSpans(tr, "map-task")-roundTasks(tr)), "map-tasks/job")
}
