package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/qws"
	"repro/internal/sequencefile"
	"repro/internal/skyline"
)

// isSkyline reports whether the set is mutually non-dominated under the
// index's duplicate-preserving convention.
func isSkyline(s points.Set) bool {
	for i, p := range s {
		for j, q := range s {
			if i != j && dominatesStrict(q, p) {
				return false
			}
		}
	}
	return true
}

// TestFoldBatchOneEpoch: a batch of K publishes installs exactly one new
// epoch, and every pending carries its result once that epoch is visible.
func TestFoldBatchOneEpoch(t *testing.T) {
	ix, err := BuildIndex(context.Background(), qws.Dataset(31, 500, 4), Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	before := ix.Epoch()
	adds := qws.Dataset(32, 64, 4)
	batch := make([]*pending, len(adds))
	for i, p := range adds {
		batch[i] = &pending{p: p}
	}
	ix.mu.Lock()
	ix.foldBatch(batch)
	ix.mu.Unlock()
	for i, pd := range batch {
		if pd.res.err != nil {
			t.Fatalf("pending %d: %v", i, pd.res.err)
		}
		if pd.res.tests <= 0 || pd.res.candidates <= 0 {
			t.Errorf("pending %d: no attributed cost: %+v", i, pd.res)
		}
	}
	if got := ix.Epoch(); got != before+1 {
		t.Errorf("epoch %d after one batch, want %d", got, before+1)
	}
	var all points.Set
	all = append(all, qws.Dataset(31, 500, 4)...)
	all = append(all, adds...)
	if !sameMultiset(ix.Global(), skyline.BNL(all)) {
		t.Error("batched fold diverged from BNL oracle")
	}
}

// TestGroupCommitOneEpochPerBatch: publishes that queue while a fold runs
// are folded together by one of them as one epoch. The test holds the
// write lock as a running fold would, waits until eight concurrent Adds
// are all queued, and releases it: exactly one new epoch follows, every
// Add returns its own point's result, and every point is visible.
func TestGroupCommitOneEpochPerBatch(t *testing.T) {
	seed := qws.Dataset(37, 300, 3)
	ix, err := BuildIndex(context.Background(), seed, Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	// Mutually non-dominated, and each dominates every seed: all eight
	// enter, and together they are the whole global skyline.
	const n = 8
	adds := make(points.Set, n)
	for i := range adds {
		adds[i] = points.Point{-1 - float64(i), -float64(n - i), -1}
	}
	before := ix.Epoch()

	type result struct {
		id  int
		in  bool
		err error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	ix.mu.Lock()
	for i := range adds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, in, err := ix.Add(adds[i])
			results[i] = result{id, in, err}
		}(i)
	}
	for queued := 0; queued < n; {
		runtime.Gosched()
		ix.wmu.Lock()
		queued = len(ix.waiting)
		ix.wmu.Unlock()
	}
	ix.mu.Unlock()
	wg.Wait()

	if got := ix.Epoch(); got != before+1 {
		t.Errorf("epoch %d after %d queued Adds, want %d (one batch)", got, n, before+1)
	}
	for i, r := range results {
		want, err := ix.part.Assign(adds[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.err != nil || r.id != want || !r.in {
			t.Errorf("add %d: partition %d, in %v, err %v; want partition %d, in", i, r.id, r.in, r.err, want)
		}
	}
	if !sameMultiset(ix.Global(), adds) {
		t.Errorf("global holds %d points, want the %d publishes", len(ix.Global()), n)
	}
	if !sameMultiset(ix.Global(), skyline.BNL(append(seed.Clone(), adds...))) {
		t.Error("group commit diverged from BNL oracle")
	}
}

// TestGroupCommitVisibility: with four publishers racing, an
// acknowledged Add is immediately visible in the next View, and the
// final state matches the BNL oracle.
func TestGroupCommitVisibility(t *testing.T) {
	seed := qws.Dataset(33, 300, 3)
	ix, err := BuildIndex(context.Background(), seed, Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}

	// The hero point strictly dominates everything, so once its Add
	// returns it must be the entire global skyline in any subsequent
	// view — no "acknowledged but not yet folded" window — even while the
	// other publishers are still folding.
	var wg sync.WaitGroup
	adds := qws.Dataset(34, 200, 3)
	hero := points.Point{-1, -1, -1}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(adds); i += 4 {
				if w == 0 && i == 100 {
					_, in, err := ix.Add(hero)
					if err != nil || !in {
						t.Errorf("hero add: in=%v err=%v", in, err)
						return
					}
					if g := ix.View().Global(); len(g) != 1 || !g[0].Equal(hero) {
						t.Errorf("after acked hero publish, global = %d points", len(g))
					}
				}
				if _, _, err := ix.Add(adds[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var all points.Set
	all = append(all, seed...)
	all = append(all, adds...)
	all = append(all, hero)
	if !sameMultiset(ix.Global(), skyline.BNL(all)) {
		t.Error("end state diverged from BNL oracle")
	}
}

// TestMVCCSoak is the -race soak: concurrent group-committed publishes, snapshot
// reads and explain queries. Readers assert that epochs only move
// forward and that no view is ever half-installed — every observed
// global is mutually non-dominated AND exactly the merge of the same
// view's local skylines (a torn install would break one of the two).
// After the dust settles, the index must equal the BNL oracle over
// everything published.
func TestMVCCSoak(t *testing.T) {
	const (
		writers   = 4
		readers   = 3
		perWriter = 150
	)
	seed := qws.Dataset(35, 400, 3)
	ix, err := BuildIndex(context.Background(), seed, Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var writerWG, readerWG sync.WaitGroup

	// Writers: blocking Adds, which group-commit with each other.
	published := make([]points.Set, writers)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			pts := qws.Dataset(int64(36+w), perWriter, 3)
			published[w] = pts
			for _, p := range pts {
				if _, _, err := ix.Add(p); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	// Readers: spin views, checking monotonicity and self-consistency.
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var lastEpoch uint64
			for i := 0; !stop.Load(); i++ {
				v := ix.View()
				if e := v.Epoch(); e < lastEpoch {
					t.Errorf("reader %d: epoch went backwards %d → %d", r, lastEpoch, e)
					return
				} else {
					lastEpoch = e
				}
				switch rng.Intn(10) {
				case 0:
					// Full consistency audit of this view: the global is a
					// skyline and equals the merge of the view's own locals.
					if !isSkyline(v.Global()) {
						t.Errorf("reader %d: view global not mutually non-dominated", r)
						return
					}
					merged, _ := ExplainMerge("soak", viewLocals(v))
					if !sameMultiset(merged, v.Global()) {
						t.Errorf("reader %d: view global != merge of view locals (torn install?)", r)
						return
					}
				case 1:
					sky, ex := ix.Explain(context.Background())
					if ex.ResultSize != len(sky) || !isSkyline(sky) {
						t.Errorf("reader %d: explain inconsistent", r)
						return
					}
				default:
					if len(v.Global()) == 0 {
						t.Errorf("reader %d: empty global", r)
						return
					}
				}
			}
		}(r)
	}

	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()

	var all points.Set
	all = append(all, seed...)
	for _, pts := range published {
		all = append(all, pts...)
	}
	if !sameMultiset(ix.Global(), skyline.BNL(all)) {
		t.Error("soak end state diverged from BNL oracle")
	}
}

func viewLocals(v View) map[int]points.Set {
	out := make(map[int]points.Set)
	for id := 0; id < v.Partitions(); id++ {
		if ls := v.Local(id); len(ls) > 0 {
			out[id] = ls
		}
	}
	return out
}

// TestSnapshotV2CarriesEpoch: a saved index resumes at its saved epoch
// with its exact shard layout, and the v2 header is well-formed.
func TestSnapshotV2CarriesEpoch(t *testing.T) {
	ix, err := BuildIndex(context.Background(), qws.Dataset(40, 800, 4), Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range qws.Dataset(41, 60, 4) {
		if _, _, err := ix.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	var blob bytes.Buffer
	if err := ix.Save(&blob); err != nil {
		t.Fatal(err)
	}
	recs, err := sequencefile.ReadAll(bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var meta snapshotMeta
	if err := json.Unmarshal(recs[0].Value, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Version != 2 || meta.Epoch != ix.Epoch() || meta.Scheme == "" || len(meta.Shards) == 0 {
		t.Fatalf("v2 header incomplete: %+v (index epoch %d)", meta, ix.Epoch())
	}
	restored, err := LoadIndex(context.Background(), bytes.NewReader(blob.Bytes()), Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != ix.Epoch() {
		t.Errorf("restored epoch %d, want %d", restored.Epoch(), ix.Epoch())
	}
	if !sameMultiset(restored.Global(), ix.Global()) || restored.Size() != ix.Size() {
		t.Error("restored state differs from saved state")
	}
	for id := 0; id < ix.Partitions(); id++ {
		if !sameMultiset(restored.LocalSkyline(id), ix.LocalSkyline(id)) {
			t.Errorf("shard %d differs after restore", id)
		}
	}

	// A tampered shard manifest must be rejected.
	meta.Shards["0"]++
	hdr, _ := json.Marshal(meta)
	var buf bytes.Buffer
	sw := sequencefile.NewWriter(&buf)
	if err := sw.Append([]byte("meta"), hdr); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[1:] {
		if err := sw.Append(rec.Key, rec.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(context.Background(), bytes.NewReader(buf.Bytes()), Options{Scheme: partition.Angular}); err == nil {
		t.Error("tampered shard manifest accepted")
	}
}

// TestSnapshotV1Restore: the restore path still accepts version-1 files
// (no epoch, no shard manifest) and restarts the epoch clock.
func TestSnapshotV1Restore(t *testing.T) {
	// Hand-write a v1 snapshot: {version:1} header, then tagged points.
	local := map[int]points.Set{
		0: {points.Point{1, 5}, points.Point{2, 4}},
		3: {points.Point{5, 1}, points.Point{3, 3}},
	}
	hdr, err := json.Marshal(snapshotMeta{Version: 1, Dim: 2, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := sequencefile.NewWriter(&buf)
	if err := sw.Append([]byte("meta"), hdr); err != nil {
		t.Fatal(err)
	}
	for id, ls := range local {
		for _, p := range ls {
			if err := sw.Append([]byte(fmt.Sprint(id)), points.Encode(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}

	ix, err := LoadIndex(context.Background(), bytes.NewReader(buf.Bytes()), Options{Scheme: partition.Angular, Partitions: 4})
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	if ix.Epoch() != 1 {
		t.Errorf("v1 restore epoch %d, want 1", ix.Epoch())
	}
	var union points.Set
	for _, ls := range local {
		union = append(union, ls...)
	}
	if !sameMultiset(ix.Global(), skyline.BNL(union)) {
		t.Error("v1 restored global diverges from oracle")
	}
	for id, ls := range local {
		if !sameMultiset(ix.LocalSkyline(id), ls) {
			t.Errorf("v1 restore: shard %d lost its partition tag", id)
		}
	}
	// Future versions stay rejected.
	hdr, _ = json.Marshal(snapshotMeta{Version: 3, Dim: 2, Partitions: 4})
	buf.Reset()
	sw = sequencefile.NewWriter(&buf)
	_ = sw.Append([]byte("meta"), hdr)
	_ = sw.Append([]byte("0"), points.Encode(points.Point{1, 2}))
	_ = sw.Flush()
	if _, err := LoadIndex(context.Background(), bytes.NewReader(buf.Bytes()), Options{}); err == nil {
		t.Error("future snapshot version accepted")
	}
}
