package points

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// walkAgainstDecode runs WalkFrames and a DecodeFrame loop into one block
// over the same stream and fails unless both reject it or both yield the
// same rows, bit for bit, in the same order.
func walkAgainstDecode(t *testing.T, stream []byte) {
	t.Helper()
	want := NewBlock(0, 0)
	var wantErr error
	for rest := stream; len(rest) > 0 && wantErr == nil; {
		_, rest, wantErr = DecodeFrame(want, rest)
	}
	var got []float64
	dim := 0
	rows, err := WalkFrames(stream, func(row []float64) error {
		dim = len(row)
		got = append(got, row...)
		return nil
	})
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("walker error %v, DecodeFrame error %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if rows != want.Len() || (rows > 0 && dim != want.Dim()) {
		t.Fatalf("walker yields %d rows of dim %d, DecodeFrame %d of dim %d", rows, dim, want.Len(), want.Dim())
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want.coords[i]) {
			t.Fatalf("coordinate %d: walker %v, DecodeFrame %v", i, v, want.coords[i])
		}
	}
}

// walkSeeds are streams of v1, v2 and mixed frames, including every seed
// of FuzzDecodeFrame and FuzzDecodeFrameV2.
func walkSeeds() [][]byte {
	rng := rand.New(rand.NewSource(1))
	v2a := AppendFrameCodec(nil, 3, randomBlock(rng, 12, 4, true), FrameV2)
	v2b := AppendFrameCodec(nil, 0, randomBlock(rng, 1, 1, false), FrameV2)
	v1a := AppendFrame(nil, 2, randomBlock(rng, 8, 3, false))
	v1b := AppendFrame(nil, 3, &Block{dim: 2, coords: []float64{1, 2, 3, 4}})
	mixed := AppendFrame(nil, 1, randomBlock(rng, 700, 4, false))
	mixed = AppendFrameCodec(mixed, 2, randomBlock(rng, 600, 4, true), FrameV2)
	mixed = AppendFrame(mixed, 9, NewBlock(0, 0))
	mixed = AppendFrameCodec(mixed, 4, &Block{dim: 4, coords: []float64{math.NaN(), math.Inf(1), -0.0, 5e-324}}, FrameV2)
	return [][]byte{
		v2a, v2b, v1a, v1b, mixed,
		append(append([]byte(nil), v1a...), v2a...), // dimension changes mid-stream
		append(append([]byte(nil), v2a...), v2a...),
		{FrameVersion, 0, 0, 0},
		{FrameVersion, 1, 0xff, 0xff, 0x03, 1},
		{FrameVersion2},
		{},
	}
}

// TestWalkFramesMatchesDecodeFrame replays the seeds and every truncation
// and single-bit corruption of the short ones.
func TestWalkFramesMatchesDecodeFrame(t *testing.T) {
	for _, seed := range walkSeeds() {
		walkAgainstDecode(t, seed)
		if len(seed) > 600 {
			continue
		}
		for cut := 0; cut < len(seed); cut++ {
			walkAgainstDecode(t, seed[:cut])
		}
		for bit := 0; bit < len(seed)*8; bit++ {
			bad := append([]byte(nil), seed...)
			bad[bit/8] ^= 1 << (bit % 8)
			walkAgainstDecode(t, bad)
		}
	}
}

// TestWalkFramesStopsOnCallbackError: the walker returns fn's error as it
// is, with the rows accepted before it.
func TestWalkFramesStopsOnCallbackError(t *testing.T) {
	stop := errors.New("stop")
	for _, codec := range []FrameCodec{FrameV1, FrameV2} {
		stream := AppendFrameCodec(nil, 0, randomBlock(rand.New(rand.NewSource(2)), 50, 3, false), codec)
		seen := 0
		rows, err := WalkFrames(stream, func([]float64) error {
			if seen == 20 {
				return stop
			}
			seen++
			return nil
		})
		if err != stop || rows != 20 {
			t.Fatalf("%v: %d rows, error %v; want 20 rows and the callback's error", codec, rows, err)
		}
	}
}

// TestWalkFramesAllocatesPerStream: one row of scratch for a v1 stream, one
// reused block for the v2 frames — never an allocation per row.
func TestWalkFramesAllocatesPerStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, codec := range []FrameCodec{FrameV1, FrameV2} {
		stream := AppendFrameCodec(nil, 0, randomBlock(rng, 20000, 6, false), codec)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := WalkFrames(stream, func([]float64) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("%v: %.0f allocations walking 20000 rows", codec, allocs)
		}
	}
}

// TestAppendFrameRowsMatchesAppendFrame: the direct encoder writes the
// bytes AppendFrame writes for the same rows, and rejects a ragged set.
func TestAppendFrameRowsMatchesAppendFrame(t *testing.T) {
	blk := randomBlock(rand.New(rand.NewSource(4)), 40, 5, false)
	for _, rows := range []Set{blk.ToSet(), {}} {
		got, err := AppendFrameRows([]byte{7}, 3, rows)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := BlockOf(rows)
		if !bytes.Equal(got, AppendFrame([]byte{7}, 3, want)) {
			t.Fatalf("%d rows: bytes differ from AppendFrame's", len(rows))
		}
	}
	if _, err := AppendFrameRows(nil, 0, Set{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged set encoded")
	}
}

// FuzzWalkFrames: for any byte string the row walker and DecodeFrame agree.
func FuzzWalkFrames(f *testing.F) {
	for _, seed := range walkSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { walkAgainstDecode(t, data) })
}
