package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/points"
	"repro/internal/skyline"
)

// windows is the incremental local-skyline combiner the driver uses: one
// BNL window per partition, folded as rows arrive.
var windows = NewAccumulators(func() Accumulator { return skyline.NewWindow() })

func blockBNLCombiner(_ int, blk *points.Block) (*points.Block, error) {
	return skyline.BlockBNL(blk), nil
}

// diffInput builds a hostile-but-valid input: coarse coordinates (many
// dominance ties), a tenth of the rows exact duplicates, and a routing
// rule under which partition 1 never receives a point while — when skew
// is set — partition 0 receives all of them.
func diffInput(seed int64, n, d int, skew bool) (points.Set, func(row []float64) int) {
	rng := rand.New(rand.NewSource(seed))
	data := make(points.Set, 0, n+n/10)
	for i := 0; i < n; i++ {
		p := make(points.Point, d)
		for j := range p {
			p[j] = float64(rng.Intn(40))
		}
		data = append(data, p)
	}
	for i := 0; i < n/10; i++ {
		data = append(data, data[rng.Intn(n)].Clone())
	}
	route := func(row []float64) int {
		if skew {
			return 0
		}
		if id := int(row[0]) % 6; id != 1 {
			return id
		}
		return 5
	}
	return data, route
}

// requireSameTask compares two map tasks' outputs: byte-identical frame
// streams and equal tallies (CombineNanos is wall-clock, not compared).
func requireSameTask(t *testing.T, aStreams, bStreams [][]byte, a, b FrameStats) {
	t.Helper()
	if len(aStreams) != len(bStreams) {
		t.Fatalf("%d streams vs %d", len(aStreams), len(bStreams))
	}
	for r := range aStreams {
		if !bytes.Equal(aStreams[r], bStreams[r]) {
			t.Fatalf("reducer %d: frame streams differ (%d vs %d bytes)", r, len(aStreams[r]), len(bStreams[r]))
		}
	}
	a.CombineNanos, b.CombineNanos = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("task stats differ:\n accumulators %+v\n BuildFrames   %+v", a, b)
	}
}

// TestWindowAccumulatorsMatchBlockCombiner is the differential property
// behind the record-free map side: a task fed rows that folds them into
// per-partition BNL windows as they arrive is indistinguishable — frame
// bytes, tallies, dominance-test count — from BuildFrames over the encoded
// records with skyline.BlockBNL as a whole-block combiner.
func TestWindowAccumulatorsMatchBlockCombiner(t *testing.T) {
	for _, d := range []int{2, 6, 10} {
		for _, skew := range []bool{false, true} {
			for _, codec := range []points.FrameCodec{points.FrameDefault, points.FrameAuto} {
				t.Run(fmt.Sprintf("d%d-skew%v-codec%d", d, skew, codec), func(t *testing.T) {
					data, route := diffInput(int64(31*d), 1500, d, skew)
					const reducers = 3

					before := skyline.DominanceTests()
					feed := SetRows(data)
					rowStreams, rowStats, err := buildFrames(func(emit EmitPoint) (int, error) {
						return feed.feed(0, len(data), func(row []float64, emit EmitPoint) error {
							emit(route(row), row)
							return nil
						}, emit)
					}, windows, nil, reducers, codec)
					if err != nil {
						t.Fatal(err)
					}
					rowTests := skyline.DominanceTests() - before

					records := make([][]byte, len(data))
					for i, p := range data {
						records[i] = points.Encode(p)
					}
					scratch := make(points.Point, 0, d)
					before = skyline.DominanceTests()
					recStreams, recStats, err := BuildFrames(records, reducers,
						FrameMapperFunc(func(rec []byte, emit EmitPoint) error {
							p, err := points.DecodeInto(scratch[:0], rec)
							if err != nil {
								return err
							}
							emit(route(p), p)
							return nil
						}), blockBNLCombiner, codec)
					if err != nil {
						t.Fatal(err)
					}
					recTests := skyline.DominanceTests() - before

					requireSameTask(t, rowStreams, recStreams, rowStats, recStats)
					if rowTests != recTests || rowTests == 0 {
						t.Fatalf("dominance tests: %d incremental vs %d block", rowTests, recTests)
					}
					if _, hit := rowStats.Partitions[1]; hit {
						t.Fatal("partition 1 should have received no point")
					}
					if skew && rowStats.Partitions[0].Records != int64(len(data)) {
						t.Fatalf("partition 0 got %d of %d points", rowStats.Partitions[0].Records, len(data))
					}
				})
			}
		}
	}
}

// flakyChunks serves a block set as chunks and fails the first read of
// every chunk — of chunk only alone, when that is set — so each map task is
// retried and re-reads its feed. With partial set the failing read first
// leaves half of another chunk in the block it was handed — a read that died
// mid-way — and since chunk blocks are recycled, only an emptied block keeps
// those rows out of the retry.
type flakyChunks struct {
	blocks  []*points.Block
	reads   []atomic.Int32
	partial bool
	only    int // -1: every chunk
}

func newFlakyChunks(blocks []*points.Block) *flakyChunks {
	return &flakyChunks{blocks: blocks, reads: make([]atomic.Int32, len(blocks)), only: -1}
}

func (f *flakyChunks) Chunks() int { return len(f.blocks) }

func (f *flakyChunks) ReadChunk(i int, blk *points.Block) error {
	if f.reads[i].Add(1) == 1 && (f.only < 0 || f.only == i) {
		if other := f.blocks[(i+1)%len(f.blocks)]; f.partial {
			blk.AppendBlock(other.Slice(0, other.Len()/2))
		}
		return errors.New("transient read error")
	}
	blk.AppendBlock(f.blocks[i])
	return nil
}

// TestAccumulatorJobsAgreeUnderRetry runs whole jobs: window accumulators
// and the staged BlockBNL combiner must agree on counters and result
// blocks whatever the feed, and a job whose every map task fails once —
// a chunk read that errors, and a mapper that errors half-way through a
// task, leaving half-filled windows behind — must after retry equal the
// job that never failed. So must a task of several chunks whose last read
// fails: it restarts from its first chunk, with fresh windows.
func TestAccumulatorJobsAgreeUnderRetry(t *testing.T) {
	const d, per = 6, 400
	data, route := diffInput(7, 8*per, d, false)
	var blocks []*points.Block
	for lo := 0; lo < len(data); lo += per {
		blk, _ := points.BlockOf(data[lo:min(lo+per, len(data))])
		blocks = append(blocks, blk)
	}
	mapper := RowMapper(func(row []float64, emit EmitPoint) error {
		emit(route(row), row)
		return nil
	})
	// failsOnce errors the first time it meets each chunk's 200th row.
	var tripped [64]atomic.Bool
	seen := make(map[*float64]int) // row identity → chunk, for the trip wire
	for c := range blocks {
		seen[&data[c*per+per/2][0]] = c
	}
	failsOnce := RowMapper(func(row []float64, emit EmitPoint) error {
		if c, ok := seen[&row[0]]; ok && tripped[c].CompareAndSwap(false, true) {
			return errors.New("transient map error")
		}
		return mapper(row, emit)
	})

	// split is the task length in the feed's own unit: rows of a set, chunks
	// of a chunk source.
	run := func(name string, split int, job FrameJob) *FrameResult {
		t.Helper()
		job.Folder = skylineFolder
		cfg := Config{Name: "acc", Workers: 4, Reducers: 3, SplitSize: split, MaxAttempts: 2}
		res, err := RunFrames(context.Background(), cfg, job)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	// The job that never failed, at a task of chunks chunks of rows.
	staged := func(chunks int) *FrameResult {
		want := run("staged combiner", chunks*per, FrameJob{Feed: SetRows(data), Mapper: mapper, Combiner: blockBNLCombiner})
		if want.Counters.Get(CounterCombineOut) >= want.Counters.Get(CounterCombineIn) {
			t.Fatal("combiner did not shrink the input; the test would prove nothing")
		}
		return want
	}
	partial := newFlakyChunks(blocks)
	partial.partial = true
	lastOfThree := newFlakyChunks(blocks)
	lastOfThree.only = 2
	for _, tc := range []struct {
		name    string
		split   int // the task, in the feed's unit
		chunks  int // the task, in chunks of rows
		job     FrameJob
		retries int64
	}{
		{"windows over a set", per, 1, FrameJob{Feed: SetRows(data), Mapper: mapper, Accumulators: windows}, 0},
		{"windows, mapper fails mid-task", per, 1, FrameJob{Feed: SetRows(data), Mapper: failsOnce, Accumulators: windows}, int64(len(blocks))},
		{"windows over flaky chunks", 1, 1, FrameJob{Feed: ChunkRows(newFlakyChunks(blocks)), Mapper: mapper, Accumulators: windows}, int64(len(blocks))},
		{"windows over chunks whose first read dies half-way", 1, 1, FrameJob{Feed: ChunkRows(partial), Mapper: mapper, Accumulators: windows}, int64(len(blocks))},
		{"a three-chunk task whose last read fails", 3, 3, FrameJob{Feed: ChunkRows(lastOfThree), Mapper: mapper, Accumulators: windows}, 1},
	} {
		want, got := staged(tc.chunks), run(tc.name, tc.split, tc.job)
		if n := got.Counters.Get(CounterMapRetries); n != tc.retries {
			t.Errorf("%s: %d map retries, want %d", tc.name, n, tc.retries)
		}
		wantC, gotC := want.Counters.Snapshot(), got.Counters.Snapshot()
		delete(gotC, CounterMapRetries)
		if !reflect.DeepEqual(wantC, gotC) {
			t.Errorf("%s: counters differ:\n want %v\n got  %v", tc.name, wantC, gotC)
		}
		if !reflect.DeepEqual(want.Partitions, got.Partitions) {
			t.Errorf("%s: per-partition shuffle stats differ", tc.name)
		}
		if !reflect.DeepEqual(canonicalBlocks(t, want.Blocks), canonicalBlocks(t, got.Blocks)) {
			t.Errorf("%s: result blocks differ", tc.name)
		}
	}
	if reads := lastOfThree.reads[0].Load(); reads != 2 {
		t.Errorf("the retried three-chunk task read its first chunk %d times, want 2", reads)
	}
}
