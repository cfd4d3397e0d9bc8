package driver

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/sequencefile"
	"repro/internal/skyline"
)

// Index snapshots let a long-running registry restart without recomputing
// its skyline from the full service catalogue: the persisted state is the
// partitioner-defining options plus every partition's local skyline —
// exactly the working set the incremental index keeps in memory.
//
// Format: a sequencefile whose first record is ("meta", JSON header) and
// whose remaining records are (partition-id, encoded point), one per local
// skyline member.
//
// Version history:
//
//	v1 — {version, dim, partitions}; restore recomputes everything.
//	v2 — adds the serving core's epoch and the partitioning scheme, plus
//	     the per-shard record counts, so a restored index resumes at the
//	     epoch it was saved at and the restore path can sanity-check the
//	     shard layout without re-running a MapReduce job.
//
// LoadIndex accepts both: the record stream is identical, v1 files simply
// restart the epoch clock at 1.

// snapshotMeta is the JSON header of a snapshot. Partitions is the
// length of the saved shard table: every partition key is in
// [0, Partitions).
type snapshotMeta struct {
	Version    int    `json:"version"`
	Dim        int    `json:"dim"`
	Partitions int    `json:"partitions"`
	Epoch      uint64 `json:"epoch,omitempty"`  // v2
	Scheme     string `json:"scheme,omitempty"` // v2
	// Shards records each persisted shard's size (partition id → point
	// count), letting restore verify it reassembled exactly the saved
	// layout. v2 only.
	Shards map[string]int `json:"shards,omitempty"`
}

const snapshotVersion = 2

// Save writes the index's state: options header plus all local skyline
// points tagged with their partition. The write runs entirely on an
// epoch snapshot (one atomic load), so it never blocks publishes — a
// live registry can checkpoint under full write load.
//
// Restoring builds a partitioner from the *restored* union of local
// skylines. Because every retained point keeps its partition tag, restore
// does not depend on the rebuilt partitioner agreeing with the original
// for old points; only *future* Add calls use it, and any consistent
// partitioning keeps the index correct (local skylines merely stop being
// aligned with the original sector boundaries, costing balance, not
// correctness).
func (ix *Index) Save(w io.Writer) error {
	v := ix.View()
	local := v.locals()

	dim := 0
	for _, ls := range local {
		if len(ls) > 0 {
			dim = ls[0].Dim()
			break
		}
	}
	if dim == 0 {
		return fmt.Errorf("driver: cannot snapshot an empty index")
	}
	ids := make([]int, 0, len(local))
	shardSizes := make(map[string]int, len(local))
	for id := range local {
		ids = append(ids, id)
		shardSizes[strconv.Itoa(id)] = len(local[id])
	}
	sort.Ints(ids)

	meta := snapshotMeta{
		Version:    snapshotVersion,
		Dim:        dim,
		Partitions: v.Partitions(),
		Epoch:      v.Epoch(),
		Scheme:     ix.scheme.String(),
		Shards:     shardSizes,
	}
	hdr, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	sw := sequencefile.NewWriter(w)
	if err := sw.Append([]byte("meta"), hdr); err != nil {
		return err
	}
	// Deterministic order: partitions ascending, points in stored order.
	for _, id := range ids {
		key := []byte(strconv.Itoa(id))
		for _, p := range local[id] {
			if err := sw.Append(key, points.Encode(p)); err != nil {
				return err
			}
		}
	}
	return sw.Flush()
}

// LoadIndex restores an index from a snapshot (v1 or v2). opts selects
// the partitioner for future additions (typically the same options the
// index was built with); the snapshot's partition tags are preserved for
// the restored points. A v2 snapshot resumes at its saved epoch; a v1
// snapshot restarts the epoch clock.
func LoadIndex(ctx context.Context, r io.Reader, opts Options) (*Index, error) {
	recs, err := sequencefile.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("driver: reading snapshot: %w", err)
	}
	if len(recs) == 0 || string(recs[0].Key) != "meta" {
		return nil, fmt.Errorf("driver: snapshot missing meta header")
	}
	var meta snapshotMeta
	if err := json.Unmarshal(recs[0].Value, &meta); err != nil {
		return nil, fmt.Errorf("driver: snapshot meta: %w", err)
	}
	if meta.Version < 1 || meta.Version > snapshotVersion {
		return nil, fmt.Errorf("driver: snapshot version %d, want 1..%d", meta.Version, snapshotVersion)
	}
	// The header sizes the restored shard table, which every later publish
	// batch that touches a partition copies.
	if meta.Partitions < 1 || meta.Partitions > partition.MaxPartitions {
		return nil, fmt.Errorf("driver: snapshot partitions %d outside [1, %d]", meta.Partitions, partition.MaxPartitions)
	}
	local := make(map[int]points.Set)
	var union points.Set
	for _, rec := range recs[1:] {
		id, err := strconv.Atoi(string(rec.Key))
		if err != nil {
			return nil, fmt.Errorf("driver: snapshot partition key %q", rec.Key)
		}
		// The restored shard table is indexed by id: a key outside the
		// declared table would be dropped from it, or would size it.
		if id < 0 || id >= meta.Partitions {
			return nil, fmt.Errorf("driver: snapshot partition key %q outside [0, %d)", rec.Key, meta.Partitions)
		}
		// Decode checks the encoding, not the values, and the partitioner
		// below is fitted to a sample of the union: every row is validated
		// here, as it is decoded.
		p, err := points.Decode(rec.Value)
		if err == nil {
			err = p.Validate()
		}
		if err != nil {
			return nil, err
		}
		if p.Dim() != meta.Dim {
			return nil, fmt.Errorf("driver: snapshot point dim %d, want %d", p.Dim(), meta.Dim)
		}
		local[id] = append(local[id], p)
		union = append(union, p)
	}
	if len(union) == 0 {
		return nil, fmt.Errorf("driver: snapshot holds no points")
	}
	if meta.Version >= 2 {
		for key, want := range meta.Shards {
			id, err := strconv.Atoi(key)
			if err != nil {
				return nil, fmt.Errorf("driver: snapshot shard key %q", key)
			}
			if got := len(local[id]); got != want {
				return nil, fmt.Errorf("driver: snapshot shard %d holds %d points, header says %d", id, got, want)
			}
		}
		if len(local) != len(meta.Shards) {
			return nil, fmt.Errorf("driver: snapshot holds %d shards, header says %d", len(local), len(meta.Shards))
		}
	}

	// Rebuild the serving state directly — no MapReduce job needed: the
	// persisted locals ARE the working set, and the global skyline is one
	// kernel pass over their (small) union.
	opts = opts.withDefaults()
	part, err := partition.New(opts.Scheme, union, opts.Partitions)
	if err != nil {
		return nil, err
	}
	epoch := meta.Epoch
	if epoch == 0 {
		epoch = 1
	}
	ix := &Index{
		scheme: opts.Scheme,
		part:   part,
		dim:    meta.Dim,
	}
	ix.install(epoch, local, skyline.FlatBNL(union))
	return ix, nil
}
