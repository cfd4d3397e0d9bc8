package points

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func buildBlock(t *testing.T, rows [][]float64) *Block {
	t.Helper()
	b := NewBlock(0, len(rows))
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4.5, -6, math.Inf(1)}, {0, 0, 0}, {1, 2, 3}}
	src := buildBlock(t, rows)
	stream := AppendFrame(nil, 7, src)

	if p, c, d, n, err := FrameHeader(stream); err != nil || p != 7 || c != len(rows) || d != 3 || n != len(stream) {
		t.Fatalf("FrameHeader = %d, %d, %d, %d, %v; want 7, %d, 3, %d", p, c, d, n, err, len(rows), len(stream))
	}

	dst := NewBlock(0, 0)
	part, rest, err := DecodeFrame(dst, stream)
	if err != nil {
		t.Fatal(err)
	}
	if part != 7 || len(rest) != 0 {
		t.Fatalf("partition=%d rest=%d", part, len(rest))
	}
	if dst.Len() != len(rows) || dst.Dim() != 3 {
		t.Fatalf("decoded %d×%d", dst.Len(), dst.Dim())
	}
	for i, r := range rows {
		for j, v := range r {
			if got := dst.Row(i)[j]; got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
				t.Fatalf("row %d coord %d: %v != %v", i, j, got, v)
			}
		}
	}
}

func TestFrameStream(t *testing.T) {
	// Several frames back-to-back, including an empty one, decode in order.
	var stream []byte
	stream = AppendFrame(stream, 0, buildBlock(t, [][]float64{{1, 1}}))
	stream = AppendFrame(stream, 3, NewBlock(0, 0)) // empty frame
	stream = AppendFrame(stream, 12, buildBlock(t, [][]float64{{2, 2}, {3, 3}}))

	var parts []int
	dst := NewBlock(0, 0)
	for len(stream) > 0 {
		p, rest, err := DecodeFrame(dst, stream)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
		stream = rest
	}
	if len(parts) != 3 || parts[0] != 0 || parts[1] != 3 || parts[2] != 12 {
		t.Fatalf("partitions = %v", parts)
	}
	if dst.Len() != 3 {
		t.Fatalf("decoded %d rows, want 3", dst.Len())
	}
}

func TestFrameRejects(t *testing.T) {
	good := AppendFrame(nil, 1, buildBlock(t, [][]float64{{1, 2}}))
	cases := map[string][]byte{
		"empty":           {},
		"bad version":     append([]byte{9}, good[1:]...),
		"truncated":       good[:len(good)-5],
		"header only":     good[:3],
		"dim zero":        {FrameVersion, 1, 2, 0}, // 2 points, dim 0
		"oversized count": {FrameVersion, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 2},
		"padded varint":   {FrameVersion, 0x81, 0x00, 0, 0},
	}
	for name, b := range cases {
		if _, _, err := DecodeFrame(NewBlock(0, 0), b); err == nil {
			t.Errorf("%s: decode accepted", name)
		}
		if _, _, _, _, err := FrameHeader(b); err == nil {
			t.Errorf("%s: FrameHeader accepted", name)
		}
	}
	// Dimension mismatch against a committed block.
	blk := buildBlock(t, [][]float64{{1, 2, 3}})
	if _, _, err := DecodeFrame(blk, good); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestFrameByteStable(t *testing.T) {
	// Same block → same bytes, and decode → re-encode is identity.
	blk := buildBlock(t, [][]float64{{1, 2}, {3, 4}})
	a := AppendFrame(nil, 5, blk)
	b := AppendFrame(nil, 5, blk)
	if !bytes.Equal(a, b) {
		t.Fatal("encoding not deterministic")
	}
	dst := NewBlock(0, 0)
	if _, _, err := DecodeFrame(dst, a); err != nil {
		t.Fatal(err)
	}
	if c := AppendFrame(nil, 5, dst); !bytes.Equal(a, c) {
		t.Fatal("decode → encode not byte-identical")
	}
}

func TestBlockClear(t *testing.T) {
	blk := buildBlock(t, [][]float64{{1, 2}})
	blk.Clear()
	if blk.Len() != 0 || blk.Dim() != 0 {
		t.Fatalf("after Clear: %d×%d", blk.Len(), blk.Dim())
	}
	blk.AppendRow([]float64{1, 2, 3}) // new dimension adopted
	if blk.Dim() != 3 {
		t.Fatalf("dim after re-adoption = %d", blk.Dim())
	}
}

// FuzzDecodeFrame feeds arbitrary bytes: must never panic, and every
// accepted frame must re-encode to exactly the consumed bytes.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, 3, &Block{dim: 2, coords: []float64{1, 2, 3, 4}}))
	f.Add([]byte{FrameVersion, 0, 0, 0})
	f.Add([]byte{FrameVersion, 1, 0xff, 0xff, 0x03, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		blk := NewBlock(0, 0)
		part, rest, err := DecodeFrame(blk, data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		re := AppendFrame(nil, part, blk)
		if blk.Len() > 0 && !bytes.Equal(re, consumed) {
			// NaN payloads re-encode bit-identically since we move raw
			// uint64 bits, so any mismatch is a real framing bug.
			t.Fatalf("re-encode mismatch: %x vs %x", re, consumed)
		}
	})
}

// TestFramesAreSizedOnce: a v1 frame sealed into an empty buffer and a
// frame of either codec decoded into an empty block take exactly what they
// hold — capacity equal to length — and a reused walk scratch is not grown
// again for a stream no longer than the one before.
func TestFramesAreSizedOnce(t *testing.T) {
	blk := randomBlock(rand.New(rand.NewSource(5)), 300, 6, false)
	enc := AppendFrame(nil, 3, blk)
	if len(enc) != FrameV1Len(3, blk) || cap(enc) != len(enc) {
		t.Fatalf("sealed frame: len %d cap %d, FrameV1Len %d", len(enc), cap(enc), FrameV1Len(3, blk))
	}
	for _, codec := range []FrameCodec{FrameV1, FrameV2} {
		stream := AppendFrameCodec(nil, 3, blk, codec)
		got := NewBlock(0, 0)
		if _, _, err := DecodeFrame(got, stream); err != nil {
			t.Fatal(err)
		}
		if len(got.coords) != len(blk.coords) || cap(got.coords) != len(got.coords) {
			t.Errorf("%v: decoded block len %d cap %d, want both %d", codec, len(got.coords), cap(got.coords), len(blk.coords))
		}
		scratch := new(Block)
		walk := func() {
			if _, err := WalkFrames(stream, scratch, func([]float64) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		walk()
		if allocs := testing.AllocsPerRun(5, walk); allocs != 0 {
			t.Errorf("%v: %.0f allocations walking into a carried scratch, want 0", codec, allocs)
		}
	}
}
