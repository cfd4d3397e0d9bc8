package points

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

func randomBlock(rng *rand.Rand, n, d int, correlated bool) *Block {
	blk := NewBlock(d, n)
	row := make([]float64, d)
	base := make([]float64, d)
	for j := range base {
		base[j] = rng.Float64()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			if correlated {
				row[j] = base[j] + rng.NormFloat64()*1e-3
			} else {
				row[j] = rng.Float64()
			}
		}
		blk.AppendRow(row)
	}
	return blk
}

func blocksEqual(a, b *Block) bool {
	if a.Len() != b.Len() || a.Dim() != b.Dim() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			// Bit-level equality: NaN payloads must survive the codec.
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

func TestFrameV2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		name       string
		n, d       int
		correlated bool
	}{
		{"single", 1, 3, false},
		{"small", 7, 2, false},
		{"correlated", 200, 6, true},
		{"uniform", 150, 4, false},
		{"wide", 40, 12, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blk := randomBlock(rng, tc.n, tc.d, tc.correlated)
			enc := AppendFrameCodec(nil, 5, blk, FrameV2)
			if enc[0] != FrameVersion2 {
				t.Fatalf("version byte = %d, want %d", enc[0], FrameVersion2)
			}
			if p, c, d, l, err := FrameHeader(enc); err != nil || p != 5 || c != tc.n || d != tc.d || l != len(enc) {
				t.Fatalf("FrameHeader = %d, %d, %d, %d, %v; want 5, %d, %d, %d", p, c, d, l, err, tc.n, tc.d, len(enc))
			}
			got := NewBlock(0, 0)
			part, rest, err := DecodeFrame(got, enc)
			if err != nil {
				t.Fatalf("DecodeFrame: %v", err)
			}
			if part != 5 || len(rest) != 0 {
				t.Fatalf("part=%d rest=%d", part, len(rest))
			}
			if !blocksEqual(blk, got) {
				t.Fatalf("round-trip mismatch at n=%d d=%d", tc.n, tc.d)
			}
		})
	}
}

func TestFrameV2SpecialValues(t *testing.T) {
	blk := NewBlock(3, 0)
	rows := [][]float64{
		{0, math.Copysign(0, -1), 1},
		{math.Inf(1), math.Inf(-1), math.NaN()},
		{math.Float64frombits(0x7ff8000000000001), math.MaxFloat64, math.SmallestNonzeroFloat64},
		{1, 1, 1},
		{1, 1, 1},
	}
	for _, r := range rows {
		blk.AppendRow(r)
	}
	enc := AppendFrameCodec(nil, 0, blk, FrameV2)
	got := NewBlock(3, 0)
	if _, _, err := DecodeFrame(got, enc); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !blocksEqual(blk, got) {
		t.Fatal("special values did not survive the v2 codec bit-exactly")
	}
}

func TestFrameV2MixedStream(t *testing.T) {
	// v1 and v2 frames interleaved in one stream must decode in order
	// through the same DecodeFrame loop.
	rng := rand.New(rand.NewSource(7))
	a := randomBlock(rng, 20, 4, true)
	b := randomBlock(rng, 30, 4, false)
	c := randomBlock(rng, 10, 4, true)
	var stream []byte
	stream = AppendFrameCodec(stream, 1, a, FrameV1)
	stream = AppendFrameCodec(stream, 2, b, FrameV2)
	stream = AppendFrame(stream, 3, NewBlock(0, 0)) // v1 empty frame
	stream = AppendFrameCodec(stream, 4, c, FrameAuto)

	want := []*Block{a, b, NewBlock(0, 0), c}
	wantPart := []int{1, 2, 3, 4}
	rest := stream
	for i := range want {
		got := NewBlock(0, 0)
		part, r, err := DecodeFrame(got, rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if part != wantPart[i] {
			t.Fatalf("frame %d: partition %d, want %d", i, part, wantPart[i])
		}
		if want[i].Len() > 0 && !blocksEqual(want[i], got) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestFrameAutoPicksSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Correlated columns compress: auto must emit v2 and beat v1.
	corr := randomBlock(rng, 500, 6, true)
	enc := AppendFrameCodec(nil, 0, corr, FrameAuto)
	v1 := AppendFrame(nil, 0, corr)
	if enc[0] != FrameVersion2 {
		t.Fatalf("auto picked v%d on correlated input", enc[0])
	}
	if len(enc) >= len(v1) {
		t.Fatalf("auto v2 %dB not smaller than v1 %dB", len(enc), len(v1))
	}

	// Adversarial input: every IEEE bit random, v2 would expand — auto
	// must fall back to the raw v1 encoding.
	adv := NewBlock(2, 0)
	row := make([]float64, 2)
	for i := 0; i < 100; i++ {
		row[0] = math.Float64frombits(rng.Uint64())
		row[1] = math.Float64frombits(rng.Uint64())
		adv.AppendRow(row)
	}
	enc = AppendFrameCodec(nil, 0, adv, FrameAuto)
	if enc[0] != FrameVersion {
		t.Fatalf("auto picked v%d on incompressible input", enc[0])
	}
	if !bytes.Equal(enc, AppendFrame(nil, 0, adv)) {
		t.Fatal("auto fallback is not the byte-exact v1 encoding")
	}
}

func TestFrameV2CorruptionRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blk := randomBlock(rng, 50, 4, true)
	enc := AppendFrameCodec(nil, 9, blk, FrameV2)

	// Flip every payload byte in turn: the CRC must catch each one.
	hdr := len(enc) - payloadLen(t, enc)
	for i := hdr; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, _, err := DecodeFrame(NewBlock(0, 0), bad); err == nil {
			t.Fatalf("corrupted payload byte %d decoded silently", i)
		}
	}
	// Truncations anywhere must error, never panic or short-read.
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeFrame(NewBlock(0, 0), enc[:i]); err == nil {
			t.Fatalf("truncation at %d decoded silently", i)
		}
	}
}

func payloadLen(t *testing.T, enc []byte) int {
	t.Helper()
	_, _, _, packed, _, err := frameHeaderV2(enc)
	if err != nil {
		t.Fatalf("frameHeaderV2: %v", err)
	}
	return packed
}

func TestFrameV2DimMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	blk := randomBlock(rng, 5, 3, false)
	enc := AppendFrameCodec(nil, 0, blk, FrameV2)
	into := NewBlock(4, 0)
	if _, _, err := DecodeFrame(into, enc); err == nil {
		t.Fatal("3-dim v2 frame decoded into 4-dim block")
	}
	if into.Len() != 0 {
		t.Fatal("failed decode left rows behind")
	}
}

func FuzzDecodeFrameV2(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	f.Add(AppendFrameCodec(nil, 3, randomBlock(rng, 12, 4, true), FrameV2))
	f.Add(AppendFrameCodec(nil, 0, randomBlock(rng, 1, 1, false), FrameV2))
	f.Add(AppendFrame(nil, 2, randomBlock(rng, 8, 3, false)))
	f.Add([]byte{FrameVersion2})
	f.Fuzz(func(t *testing.T, data []byte) {
		blk := NewBlock(0, 0)
		part, rest, err := DecodeFrame(blk, data)
		if err != nil {
			return
		}
		if part < 0 {
			t.Fatalf("negative partition %d", part)
		}
		if len(rest) > len(data) {
			t.Fatal("rest longer than input")
		}
		// Whatever decoded must re-encode and decode to the same rows
		// under both codecs.
		if blk.Len() == 0 {
			return
		}
		for _, codec := range []FrameCodec{FrameV1, FrameV2, FrameAuto} {
			enc := AppendFrameCodec(nil, part, blk, codec)
			back := NewBlock(0, 0)
			p2, r2, err := DecodeFrame(back, enc)
			if err != nil {
				t.Fatalf("re-encode %v failed: %v", codec, err)
			}
			if p2 != part || len(r2) != 0 || !blocksEqual(blk, back) {
				t.Fatalf("re-encode %v round-trip mismatch", codec)
			}
		}
	})
}

// TestFrameV2ReserveKeepsBytes: reserving the bit buffer at the v1 length
// changes how often the encoder allocates, never what it writes. The
// golden hashes are of the frames the half-payload reserve produced, on a
// block that packs well, one that packs to ~0.91 (uniform coordinates —
// what doubled the old buffer) and one v2 expands.
func TestFrameV2ReserveKeepsBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	random := NewBlock(3, 0)
	for i := 0; i < 300; i++ {
		random.AppendRow([]float64{math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())})
	}
	for _, tc := range []struct {
		name     string
		blk      *Block
		v2, auto uint64
	}{
		{"compressible", randomBlock(rng, 2000, 6, true), 0xb83f899c5120358a, 0xb83f899c5120358a},
		{"uniform", randomBlock(rng, 2000, 6, false), 0x1b50a0a8ca7aa03f, 0x1b50a0a8ca7aa03f},
		{"random-bits", random, 0x11f2b5956408c05b, 0x821b13594c9f1a95},
	} {
		for codec, want := range map[FrameCodec]uint64{FrameV2: tc.v2, FrameAuto: tc.auto} {
			h := fnv.New64a()
			h.Write(AppendFrameCodec([]byte("prefix"), 7, tc.blk, codec))
			if got := h.Sum64(); got != want {
				t.Errorf("%s/%v: frame hash %#x, want %#x", tc.name, codec, got, want)
			}
		}
	}
	// One allocation per v2 frame — the bit buffer, never re-grown — when
	// the packed payload is no longer than the raw one.
	uniform := randomBlock(rng, 2000, 6, false)
	dst := make([]byte, 0, 2*FrameV1Len(0, uniform))
	if allocs := testing.AllocsPerRun(10, func() { AppendFrameCodec(dst, 0, uniform, FrameV2) }); allocs != 1 {
		t.Errorf("v2 encode of an uncompressible block: %v allocations, want 1", allocs)
	}
}
