package mapreduce

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/points"
	"repro/internal/skyline"
)

// FuzzReduceFramesStream feeds arbitrary bytes, as the two streams of one
// reduce task, to the body every reduce task of both executors runs — under
// an Assembled folder and under a budgeted fold small enough to overflow.
// Whatever the bytes, the task returns what AssembleFrames plus the operator
// give, or an error: never a panic, and never a fold's overflow file left
// behind.
func FuzzReduceFramesStream(f *testing.F) {
	const d = 2
	blk := func(rows ...[]float64) *points.Block {
		b := points.NewBlock(0, 0)
		for _, r := range rows {
			b.AppendRow(r)
		}
		return b
	}
	// Enough anti-correlated rows that a 1 KiB window (64 of them) overflows.
	var many [][]float64
	for i := 0; i < 80; i++ {
		many = append(many, []float64{float64(i), float64(80 - i)})
	}
	v1 := points.AppendFrame(nil, 3, blk(many...))
	v2 := points.AppendFrameCodec(nil, 1, blk(many[:40]...), points.FrameV2)
	small := points.AppendFrame(points.AppendFrame(nil, 0, blk([]float64{1, 2}, []float64{2, 1}, []float64{2, 2})), 5, blk([]float64{0, 0}))
	flip := func(b []byte, at int) []byte {
		out := bytes.Clone(b)
		out[at%len(out)] ^= 0x40
		return out
	}
	f.Add(v1, small)
	f.Add(small, v2)
	f.Add(v1[:len(v1)-5], []byte{}) // truncated v1
	f.Add(v2[:len(v2)/2], small)    // truncated v2
	f.Add(flip(v1, 1), flip(v2, 2)) // bit flips in the headers
	f.Add(flip(v1, 40), flip(v2, len(v2)-3))
	f.Add(points.AppendFrame(nil, 2, blk()), small) // a zero-count frame
	// What a negative partition id looks like on the wire.
	f.Add(append(binary.AppendUvarint([]byte{points.FrameVersion}, ^uint64(0)), 1, 1, 0, 0, 0, 0, 0, 0, 0, 0), small)
	// Two frames of different dimension for one partition.
	f.Add(points.AppendFrame(nil, 0, blk([]float64{1, 2})), points.AppendFrame(nil, 0, blk([]float64{1, 2, 3})))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, a, b []byte) {
		streams := [][]byte{a, b}
		// The oracle: every partition assembled, then the whole-block kernel,
		// sealed in ascending partition order.
		var want map[int]*points.Block
		var wantOut []byte
		finite := true
		parts, wantErr := AssembleFrames(streams)
		if wantErr == nil {
			want = make(map[int]*points.Block)
			for _, p := range sortedInts(parts) {
				for i := 0; i < parts[p].Len(); i++ {
					for _, v := range parts[p].Row(i) {
						finite = finite && !math.IsNaN(v)
					}
				}
				if sky := skyline.BlockBNL(parts[p]); sky.Len() > 0 {
					want[p] = sky
					wantOut = points.AppendFrame(wantOut, p, sky)
				}
			}
		}

		out, st, err := ReduceFramesStream(streams, FrameJob{Folder: skylineFolder}, points.FrameDefault)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("assembled: err %v, AssembleFrames' %v", err, wantErr)
		}
		if err == nil {
			if !bytes.Equal(out, wantOut) {
				t.Fatal("assembled: output is not BlockBNL of the assembled partitions, row for row")
			}
			if st.ReduceOut != rowsIn(want) || (st.ReduceIn > 0 && st.PeakBytes <= 0) {
				t.Fatalf("assembled: stats %+v for %d output rows", st, rowsIn(want))
			}
		}

		out, _, err = ReduceFramesStream(streams, FrameJob{Folder: func(int) FrameFold {
			return skyline.NewBudgetedFold(d, 1024, dir, points.FrameDefault)
		}}, points.FrameAuto)
		if err == nil {
			// The fold takes d-dimensional rows only, so it may refuse what
			// the oracle accepts, never the other way round.
			if wantErr != nil {
				t.Fatalf("budgeted: accepted streams AssembleFrames refuses: %v", wantErr)
			}
			got, err := AssembleFrames([][]byte{out})
			if err != nil {
				t.Fatalf("budgeted: output does not decode: %v", err)
			}
			// Dominance among NaNs is no order, so what survives depends on
			// who met whom; the fold owes the oracle's rows on real numbers.
			if finite && !reflect.DeepEqual(canonicalBlocks(t, got), canonicalBlocks(t, want)) {
				t.Fatal("budgeted: output is not the skyline of the assembled partitions")
			}
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "budgetfold-*.fseq")); len(left) > 0 {
			t.Fatalf("overflow files left behind: %v", left)
		}
	})
}

func rowsIn(blocks map[int]*points.Block) int64 {
	n := 0
	for _, blk := range blocks {
		n += blk.Len()
	}
	return int64(n)
}
