package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
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
// epoch, and every pending is answered after that epoch is visible.
func TestFoldBatchOneEpoch(t *testing.T) {
	ix, err := BuildIndex(context.Background(), qws.Dataset(31, 500, 4), Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	before := ix.Epoch()
	adds := qws.Dataset(32, 64, 4)
	batch := make([]*pending, len(adds))
	for i, p := range adds {
		batch[i] = &pending{p: p, done: make(chan addResult, 1)}
	}
	ix.foldBatch(batch)
	for i, pd := range batch {
		res := <-pd.done
		if res.err != nil {
			t.Fatalf("pending %d: %v", i, res.err)
		}
		if res.tests <= 0 || res.candidates <= 0 {
			t.Errorf("pending %d: no attributed cost: %+v", i, res)
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

// TestPipelineGroupCommit: with the pipeline running, an acknowledged
// Add is immediately visible in the next View, and the final state
// matches the BNL oracle. Also exercises Barrier and Close draining.
func TestPipelineGroupCommit(t *testing.T) {
	seed := qws.Dataset(33, 300, 3)
	ix, err := BuildIndex(context.Background(), seed, Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.StartPipeline(64, 16); err != nil {
		t.Fatal(err)
	}
	if err := ix.StartPipeline(64, 16); err == nil {
		t.Error("second StartPipeline accepted")
	}
	defer ix.Close()

	// Group commit: the hero point strictly dominates everything, so once
	// its Add returns it must be the entire global skyline in any
	// subsequent view — no "acknowledged but not yet folded" window.
	var wg sync.WaitGroup
	adds := qws.Dataset(34, 200, 3)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(adds); i += 4 {
				if _, _, err := ix.Add(adds[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	hero := points.Point{-1, -1, -1}
	_, in, err := ix.Add(hero)
	if err != nil {
		t.Fatal(err)
	}
	if !in {
		t.Fatal("hero not in skyline")
	}
	v := ix.View()
	if len(v.Global()) != 1 || !v.Global()[0].Equal(hero) {
		t.Errorf("after acked hero publish, global = %d points", len(v.Global()))
	}

	// Async adds are flushed by Barrier.
	late := points.Point{-2, -2, -2}
	ix.AddAsync(late)
	ix.Barrier()
	if g := ix.View().Global(); len(g) != 1 || !g[0].Equal(late) {
		t.Errorf("after AddAsync+Barrier, global = %v", g)
	}

	ix.Close()
	ix.Close() // idempotent
	// Post-close adds fall back to the synchronous path.
	later := points.Point{-3, -3, -3}
	if _, in, err := ix.Add(later); err != nil || !in {
		t.Fatalf("post-close add: in=%v err=%v", in, err)
	}
	if g := ix.View().Global(); len(g) != 1 || !g[0].Equal(later) {
		t.Errorf("post-close global = %v", g)
	}
}

// TestMVCCSoak is the -race soak: concurrent batched publishes, snapshot
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
	if err := ix.StartPipeline(128, 32); err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	var stop atomic.Bool
	var writerWG, readerWG sync.WaitGroup

	// Writers: a mix of synchronous group-committed Adds and async ones.
	published := make([]points.Set, writers)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			pts := qws.Dataset(int64(36+w), perWriter, 3)
			published[w] = pts
			for i, p := range pts {
				if i%3 == 0 {
					ix.AddAsync(p)
				} else if _, _, err := ix.Add(p); err != nil {
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
	ix.Barrier() // flush the async tail before the oracle comparison
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
