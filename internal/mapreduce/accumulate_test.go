package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
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
					rowStreams, rowStats, err := buildFrames(func(emit EmitPoint) (FrameStats, error) {
						rows, err := feed.feed(0, len(data), func(row []float64, emit EmitPoint) error {
							emit(route(row), row)
							return nil
						}, emit)
						return FrameStats{MapIn: int64(rows)}, err
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
