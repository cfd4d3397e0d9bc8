package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/points"
)

// TestSourceChunkDeterminism: re-reading a chunk, in any order, yields
// identical rows — the retry-safety contract.
func TestSourceChunkDeterminism(t *testing.T) {
	for _, kind := range []Kind{KindIndependent, KindCorrelated, KindAnticorrelated, KindClustered} {
		t.Run(kind.String(), func(t *testing.T) {
			src, err := NewSource(kind, 42, 1000, 4, 128)
			if err != nil {
				t.Fatal(err)
			}
			if src.Chunks() != 8 {
				t.Fatalf("Chunks() = %d, want 8", src.Chunks())
			}
			// Read chunks 3 then 1 then 3 again.
			a := points.NewBlock(4, 0)
			if err := src.ReadChunk(3, a); err != nil {
				t.Fatal(err)
			}
			mid := points.NewBlock(4, 0)
			if err := src.ReadChunk(1, mid); err != nil {
				t.Fatal(err)
			}
			b := points.NewBlock(4, 0)
			if err := src.ReadChunk(3, b); err != nil {
				t.Fatal(err)
			}
			if a.Len() != b.Len() || a.Len() != 128 {
				t.Fatalf("chunk lens %d vs %d, want 128", a.Len(), b.Len())
			}
			for i := 0; i < a.Len(); i++ {
				ra, rb := a.Row(i), b.Row(i)
				for j := range ra {
					if ra[j] != rb[j] {
						t.Fatalf("chunk 3 row %d dim %d: %v vs %v", i, j, ra[j], rb[j])
					}
				}
			}
			// Distinct chunks must not repeat the same stream.
			same := true
			for j := 0; j < 4; j++ {
				if a.Row(0)[j] != mid.Row(0)[j] {
					same = false
				}
			}
			if same {
				t.Fatal("chunks 1 and 3 start with identical rows — seeds not split")
			}
		})
	}
}

// TestSourceTotals: chunk lengths sum to n, last chunk ragged, values in
// range.
func TestSourceTotals(t *testing.T) {
	src, err := NewSource(KindAnticorrelated, 7, 1010, 3, 256)
	if err != nil {
		t.Fatal(err)
	}
	if src.Chunks() != 4 {
		t.Fatalf("Chunks() = %d, want 4", src.Chunks())
	}
	total := 0
	for i := 0; i < src.Chunks(); i++ {
		blk := points.NewBlock(3, 0)
		if err := src.ReadChunk(i, blk); err != nil {
			t.Fatal(err)
		}
		total += blk.Len()
		for r := 0; r < blk.Len(); r++ {
			for _, v := range blk.Row(r) {
				if v < 0 || v > 1 {
					t.Fatalf("chunk %d row %d value %v out of [0,1]", i, r, v)
				}
			}
		}
	}
	if total != 1010 {
		t.Fatalf("total %d, want 1010", total)
	}
	if err := src.ReadChunk(4, points.NewBlock(3, 0)); err == nil {
		t.Fatal("out-of-range chunk read succeeded")
	}
}

// TestSourceStreamMatchesReadChunk: Stream must visit exactly the
// concatenation of ReadChunk(0..Chunks-1).
func TestSourceStreamMatchesReadChunk(t *testing.T) {
	src, err := NewSource(KindClustered, 99, 777, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < src.Chunks(); i++ {
		blk := points.NewBlock(5, 0)
		if err := src.ReadChunk(i, blk); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < blk.Len(); r++ {
			want = append(want, fmt.Sprintf("%x", blk.Row(r)))
		}
	}
	var got []string
	if err := src.Stream(func(blk *points.Block) error {
		for r := 0; r < blk.Len(); r++ {
			got = append(got, fmt.Sprintf("%x", blk.Row(r)))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 777 {
		t.Fatalf("stream %d rows, chunks %d rows, want 777", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs between Stream and ReadChunk", i)
		}
	}
}

// TestSourceEmptyAndDefaults: n=0 sources and default chunk size.
func TestSourceEmptyAndDefaults(t *testing.T) {
	src, err := NewSource(KindIndependent, 1, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if src.Chunks() != 0 {
		t.Fatalf("empty source has %d chunks", src.Chunks())
	}
	if err := src.Stream(func(*points.Block) error { t.Fatal("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSource(KindIndependent, 1, 10, 0, 0); err == nil {
		t.Fatal("d=0 accepted")
	}
}

// chunkGolden is the FNV-1a hash of chunks 2 and 3 (the short last one) of
// NewSource(kind, 2012, 1000, 5, 300), coordinates as little-endian float64
// bits, taken from the append-one-row-at-a-time ReadChunk: the in-place
// fill must generate the same rows bit for bit.
var chunkGolden = map[Kind]uint64{
	KindIndependent:    0xd7ca4ee827c9d92e,
	KindCorrelated:     0xa19f274d9881edef,
	KindAnticorrelated: 0xb9efd56ae3849ddb,
	KindClustered:      0x540b72123d249355,
}

func hashRows(blk *points.Block, lo int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := lo; i < blk.Len(); i++ {
		for _, v := range blk.Row(i) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestReadChunkGolden pins ReadChunk's rows for every Kind and its append
// contract: rows land after whatever the block already holds (bench's
// materialise reads every chunk into one block), whether the block arrives
// with no capacity, with exactly enough, or — recycled — with stale rows in
// the capacity beyond its length.
func TestReadChunkGolden(t *testing.T) {
	for _, kind := range []Kind{KindIndependent, KindCorrelated, KindAnticorrelated, KindClustered} {
		t.Run(kind.String(), func(t *testing.T) {
			src, err := NewSource(kind, 2012, 1000, 5, 300)
			if err != nil {
				t.Fatal(err)
			}
			stale := points.NewBlock(0, 0)
			if err := src.ReadChunk(0, stale); err != nil {
				t.Fatal(err)
			}
			stale.Clear() // a recycled block: empty, dimension forgotten, chunk 0 still in its capacity
			for name, blk := range map[string]*points.Block{
				"fresh": points.NewBlock(0, 0), "sized": points.NewBlock(5, 400), "recycled": stale,
			} {
				for _, i := range []int{2, 3} {
					if err := src.ReadChunk(i, blk); err != nil {
						t.Fatal(err)
					}
				}
				if blk.Len() != 400 || blk.Dim() != 5 {
					t.Fatalf("%s: %d rows of dim %d, want 400 of dim 5", name, blk.Len(), blk.Dim())
				}
				if got := hashRows(blk, 0); got != chunkGolden[kind] {
					t.Errorf("%s: rows hash %#x, want %#x", name, got, chunkGolden[kind])
				}
				// The short last chunk again, after the 400 rows already there.
				if err := src.ReadChunk(3, blk); err != nil {
					t.Fatal(err)
				}
				if blk.Len() != 500 || hashRows(blk, 400) != hashRows(blk.Slice(300, 400), 0) {
					t.Errorf("%s: chunk 3 appended after existing rows differs from chunk 3", name)
				}
				if got := hashRows(blk.Slice(0, 400), 0); got != chunkGolden[kind] {
					t.Errorf("%s: appending disturbed the rows before it: %#x", name, got)
				}
			}
		})
	}
}

// TestWalkChunkIsReadChunk: a walk fills the one block it is handed with
// pieces of at most mapreduce.WalkRows rows that, taken in order, are
// ReadChunk's rows bit for bit, for every Kind — two full pieces and a short
// one, or one short piece — whether the block arrives fresh or recycled, and
// from several goroutines at once. An error from fn ends the walk with it.
func TestWalkChunkIsReadChunk(t *testing.T) {
	const d = 5
	lens := []int{2*mapreduce.WalkRows + 276, 188} // chunk 0, then the short last one
	for _, kind := range []Kind{KindIndependent, KindCorrelated, KindAnticorrelated, KindClustered} {
		src, err := NewSource(kind, 2012, lens[0]+lens[1], d, lens[0])
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				blk := points.NewBlock(0, 0)
				for i, n := range lens {
					if src.ChunkLen(i) != n {
						t.Errorf("%v: ChunkLen(%d) = %d, want %d", kind, i, src.ChunkLen(i), n)
					}
					want := points.NewBlock(d, n)
					if err := src.ReadChunk(i, want); err != nil {
						t.Error(err)
						return
					}
					got := points.NewBlock(d, n)
					pieces := 0
					blk.Clear() // recycled from the chunk before
					err := src.WalkChunk(i, blk, func(piece *points.Block) error {
						if piece != blk || piece.Len() == 0 || piece.Len() > mapreduce.WalkRows {
							t.Errorf("%v chunk %d: a piece of %d rows in another block (%v), want <= %d rows in blk",
								kind, i, piece.Len(), piece != blk, mapreduce.WalkRows)
						}
						pieces++
						got.AppendBlock(piece)
						return nil
					})
					if err != nil {
						t.Error(err)
						return
					}
					if wantPieces := (n + mapreduce.WalkRows - 1) / mapreduce.WalkRows; pieces != wantPieces {
						t.Errorf("%v chunk %d: %d pieces, want %d", kind, i, pieces, wantPieces)
					}
					if got.Len() != n || hashRows(got, 0) != hashRows(want, 0) {
						t.Errorf("%v chunk %d: the walk's %d rows are not ReadChunk's %d", kind, i, got.Len(), n)
					}
				}
			}()
		}
		wg.Wait()
		stop := errors.New("stop")
		calls := 0
		if err := src.WalkChunk(0, points.NewBlock(0, 0), func(*points.Block) error { calls++; return stop }); err != stop || calls != 1 {
			t.Errorf("%v: a failing fn: err %v after %d calls, want %v after 1", kind, err, calls, stop)
		}
		if err := src.WalkChunk(2, points.NewBlock(0, 0), func(*points.Block) error { return nil }); err == nil {
			t.Errorf("%v: chunk 2 of 2 walked", kind)
		}
	}
}
