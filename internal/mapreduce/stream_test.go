package mapreduce

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/points"
	"repro/internal/skyline"
)

// canonicalBlocks renders a result's blocks as sorted strings per
// partition for multiset comparison.
func canonicalBlocks(t *testing.T, blocks map[int]*points.Block) map[int][]string {
	t.Helper()
	out := make(map[int][]string, len(blocks))
	for p, blk := range blocks {
		rows := make([]string, blk.Len())
		for i := 0; i < blk.Len(); i++ {
			rows[i] = fmt.Sprintf("%x", blk.Row(i))
		}
		sort.Strings(rows)
		out[p] = rows
	}
	return out
}

func streamTestInput(rng *rand.Rand, n, d int) points.Set {
	input := make(points.Set, n)
	for i := range input {
		coords := make(points.Point, d)
		for j := range coords {
			coords[j] = rng.Float64()
		}
		input[i] = coords
	}
	return input
}

// streamSkyMapper routes each point to partition hash(first coordinate)
// mod parts.
func streamSkyMapper(parts int) RowMapper {
	return func(p []float64, emit EmitPoint) error {
		part := int(p[0]*1e6) % parts
		if part < 0 {
			part = 0
		}
		emit(part, p)
		return nil
	}
}

// skylineFolder computes each partition's skyline via the in-memory flat
// kernel over the assembled partition — the oracle the budgeted fold must
// match.
var skylineFolder = Assembled(blockBNLCombiner)

// TestRunFramesFoldOracle: the streaming budgeted reduce must produce
// exactly the in-memory reduce's skyline, partition by partition, under
// generous and tiny budgets (the latter forcing multi-pass folds), with raw
// and v2-coded shuffle frames.
func TestRunFramesFoldOracle(t *testing.T) {
	const n, d, parts = 4000, 4, 6
	rng := rand.New(rand.NewSource(21))
	input := streamTestInput(rng, n, d)
	mapper := streamSkyMapper(parts)

	oracle, err := RunFrames(context.Background(),
		Config{Name: "oracle", Workers: 4, Reducers: 3},
		FrameJob{Feed: SetRows(input), Mapper: mapper, Folder: skylineFolder})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	want := canonicalBlocks(t, oracle.Blocks)

	for _, tc := range []struct {
		name   string
		budget int64
		codec  points.FrameCodec
	}{
		{"ample-mem", 1 << 20, points.FrameDefault},
		{"ample-v2", 1 << 20, points.FrameAuto},
		{"tiny-mem", int64(d) * 8 * 8, points.FrameDefault}, // 8-row windows
		{"tiny-v2", int64(d) * 8 * 8, points.FrameAuto},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Name: "fold-" + tc.name, Workers: 4, Reducers: 3,
				Codec: tc.codec}
			folder := func(int) FrameFold {
				return skyline.NewBudgetedFold(d, tc.budget, dir, points.FrameAuto)
			}
			res, err := RunFrames(context.Background(), cfg,
				FrameJob{Feed: SetRows(input), Mapper: mapper, Folder: folder})
			if err != nil {
				t.Fatalf("RunFrames with a folder: %v", err)
			}
			got := canonicalBlocks(t, res.Blocks)
			if len(got) != len(want) {
				t.Fatalf("%d partitions, want %d", len(got), len(want))
			}
			for p, rows := range want {
				if len(got[p]) != len(rows) {
					t.Fatalf("partition %d: %d rows, want %d", p, len(got[p]), len(rows))
				}
				for i := range rows {
					if got[p][i] != rows[i] {
						t.Fatalf("partition %d row %d differs", p, i)
					}
				}
			}
			if res.ReducerPeakBytes <= 0 {
				t.Fatal("ReducerPeakBytes not recorded")
			}
			if tc.budget < 1<<12 && res.MergePasses < 2 {
				t.Fatalf("tiny budget resolved in %d pass(es); expected multi-pass", res.MergePasses)
			}
		})
	}
}

// chunkSrc serves deterministic chunks: chunk i holds rows seeded by i,
// so retries and the oracle see identical data.
type chunkSrc struct {
	chunks, per, d int
}

func (c chunkSrc) Chunks() int { return c.chunks }

func (c chunkSrc) ChunkLen(int) int { return c.per }

func (c chunkSrc) WalkChunk(i int, blk *points.Block, fn func(*points.Block) error) error {
	rng := rand.New(rand.NewSource(int64(i) * 7919))
	for left := c.per; left > 0; left -= WalkRows {
		blk.Clear()
		for rows, j := blk.Extend(c.d, min(left, WalkRows)), 0; j < len(rows); j++ {
			rows[j] = rng.Float64()
		}
		if err := fn(blk); err != nil {
			return err
		}
	}
	return nil
}

// appendChunk walks chunk i of src and appends its rows to blk: the whole
// chunk, for an oracle.
func appendChunk(src ChunkSource, i int, blk *points.Block) error {
	return src.WalkChunk(i, points.NewBlock(0, 0), func(piece *points.Block) error {
		blk.AppendBlock(piece)
		return nil
	})
}

// TestRunFramesChunkedOracle: a chunk-fed, combined, budget-folded job
// must match RunFrames over the equivalent materialized blocks.
func TestRunFramesChunkedOracle(t *testing.T) {
	const chunks, per, d, parts = 16, 250, 5, 4
	src := chunkSrc{chunks: chunks, per: per, d: d}

	// Materialize the same rows for the oracle.
	var input points.Set
	for i := 0; i < chunks; i++ {
		blk := points.NewBlock(d, per)
		if err := appendChunk(src, i, blk); err != nil {
			t.Fatal(err)
		}
		input = append(input, blk.ToSet()...)
	}
	mapper := streamSkyMapper(parts)
	oracle, err := RunFrames(context.Background(),
		Config{Name: "chunk-oracle", Workers: 4, Reducers: 2},
		FrameJob{Feed: SetRows(input), Mapper: mapper, Folder: skylineFolder})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	want := canonicalBlocks(t, oracle.Blocks)

	combiner := func(partition int, blk *points.Block) (*points.Block, error) {
		return skyline.BlockBNL(blk), nil
	}

	for _, budget := range []int64{1 << 20, int64(d) * 8 * 4} {
		t.Run(fmt.Sprintf("budget-%d", budget), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Name: "chunked", Workers: 4, Reducers: 2, Codec: points.FrameAuto}
			folder := func(int) FrameFold {
				return skyline.NewBudgetedFold(d, budget, dir, points.FrameAuto)
			}
			res, err := RunFrames(context.Background(), cfg,
				FrameJob{Feed: ChunkRows(src), Mapper: mapper, Combiner: combiner, Folder: folder})
			if err != nil {
				t.Fatalf("RunFrames over chunks: %v", err)
			}
			// The combiner shrinks map output to local skylines; the global
			// per-partition skyline is the skyline of local skylines, so the
			// oracle (no combiner) must still match exactly.
			got := canonicalBlocks(t, res.Blocks)
			for p, rows := range want {
				if len(got[p]) != len(rows) {
					t.Fatalf("partition %d: %d rows, want %d", p, len(got[p]), len(rows))
				}
				for i := range rows {
					if got[p][i] != rows[i] {
						t.Fatalf("partition %d row %d differs", p, i)
					}
				}
			}
			if res.Counters.Get(CounterMapIn) != int64(chunks*per) {
				t.Fatalf("map-in %d, want %d", res.Counters.Get(CounterMapIn), chunks*per)
			}
			if res.ReducerPeakBytes <= 0 {
				t.Fatal("ReducerPeakBytes not recorded")
			}
		})
	}
}

// TestFrameCodecOnShuffle: a v2/auto-codec job must move fewer or equal
// shuffle bytes than the identical v1 job and produce identical output.
func TestFrameCodecOnShuffle(t *testing.T) {
	const n, d, parts = 2000, 6, 4
	rng := rand.New(rand.NewSource(77))
	// Clustered input: shared exponents/mantissa prefixes, v2's case.
	input := make(points.Set, n)
	for i := range input {
		coords := make(points.Point, d)
		base := float64(i%7) / 7
		for j := range coords {
			coords[j] = base + rng.NormFloat64()*1e-4
		}
		input[i] = coords
	}
	mapper := streamSkyMapper(parts)

	run := func(codec points.FrameCodec) *FrameResult {
		res, err := RunFrames(context.Background(),
			Config{Name: "codec", Workers: 2, Reducers: 2, Codec: codec},
			FrameJob{Feed: SetRows(input), Mapper: mapper, Folder: skylineFolder})
		if err != nil {
			t.Fatalf("codec %v: %v", codec, err)
		}
		return res
	}
	v1 := run(points.FrameV1)
	v2 := run(points.FrameAuto)

	wantRows := canonicalBlocks(t, v1.Blocks)
	gotRows := canonicalBlocks(t, v2.Blocks)
	for p, rows := range wantRows {
		for i := range rows {
			if gotRows[p][i] != rows[i] {
				t.Fatalf("codec changed partition %d row %d", p, i)
			}
		}
	}
	b1 := v1.Counters.Get(CounterShuffleBytes)
	b2 := v2.Counters.Get(CounterShuffleBytes)
	if b2 >= b1 {
		t.Fatalf("auto codec shuffled %d bytes, v1 %d — no compression on clustered input", b2, b1)
	}
}

// blockCounter is a chunk source that remembers which blocks it was handed,
// and the longest piece it filled.
type blockCounter struct {
	chunkSrc
	mu       sync.Mutex
	blocks   map[*points.Block]bool
	nonEmpty int
	longest  int
}

func (c *blockCounter) WalkChunk(i int, blk *points.Block, fn func(*points.Block) error) error {
	c.mu.Lock()
	c.blocks[blk] = true
	if blk.Len() != 0 || blk.Dim() != 0 {
		c.nonEmpty++
	}
	c.mu.Unlock()
	return c.chunkSrc.WalkChunk(i, blk, func(piece *points.Block) error {
		c.mu.Lock()
		c.longest = max(c.longest, piece.Len())
		c.mu.Unlock()
		return fn(piece)
	})
}

// TestChunkRowsRecyclesBlocks: a chunk feed hands its source at most one
// block per engine worker over a whole job, each empty on arrival, and the
// source fills it a piece of at most WalkRows rows at a time — here each
// chunk is two full pieces and a short one.
func TestChunkRowsRecyclesBlocks(t *testing.T) {
	const chunks, workers, per = 16, 2, 2*WalkRows + 300
	src := &blockCounter{chunkSrc: chunkSrc{chunks: chunks, per: per, d: 5}, blocks: map[*points.Block]bool{}}
	res, err := RunFrames(context.Background(), Config{Name: "recycle", Workers: workers, Reducers: 2},
		FrameJob{Feed: ChunkRows(src), Mapper: streamSkyMapper(4), Folder: skylineFolder})
	if err != nil {
		t.Fatal(err)
	}
	if in := res.Counters.Get(CounterMapIn); in != chunks*per {
		t.Errorf("map-in %d, want %d", in, chunks*per)
	}
	if len(src.blocks) > workers || src.nonEmpty > 0 {
		t.Errorf("%d chunks were walked through %d distinct blocks (want <= %d workers), %d of them not empty on arrival",
			chunks, len(src.blocks), workers, src.nonEmpty)
	}
	if src.longest != WalkRows {
		t.Errorf("longest piece %d rows, want WalkRows (%d)", src.longest, WalkRows)
	}
}
