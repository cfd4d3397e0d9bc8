package points

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// Frame wire format (version 2) — the compressed frame codec. The header
// mirrors v1 (version, partition, count, dim), then replaces the raw
// little-endian coordinate payload with per-column XOR-delta bit-packed
// float64 columns in the Gorilla style (Pelkonen et al., VLDB 2015):
//
//	version   byte     2
//	partition uvarint  owning partition id
//	count     uvarint  number of points
//	dim       uvarint  coordinates per point (0 only when count is 0)
//	packed    uvarint  byte length of the packed payload
//	crc       uint32   little-endian CRC-32 (IEEE) of the packed payload
//	payload   [packed]byte
//
// The payload is one continuous MSB-first bitstream holding the dim
// columns back to back. Within a column, the first value is written as
// its raw 64 IEEE-754 bits; each later value is XORed with its
// predecessor in the same column and the difference is encoded as:
//
//	0                                  — identical to the predecessor
//	10 <meaningful bits>               — non-zero bits fit the previous
//	                                     (leading, length) window; only
//	                                     the window bits are written
//	11 <6b lead> <6b sig-1> <sig bits> — new window: leading-zero count,
//	                                     significant-bit length minus 1,
//	                                     then the significant bits
//
// Neighbouring values of one column share exponent and high mantissa
// bits on the correlated and clustered workloads, so their XOR is mostly
// zeros and the stream packs far below 64 bits per value; on adversarial
// input the per-value worst case is 78 bits, which is why AppendFrameCodec
// with FrameAuto falls back to v1 whenever v2 would be larger. The
// trailing CRC makes a corrupted bitstream a detected error rather than
// silently wrong coordinates — the raw v1 payload can at worst produce a
// wrong float, a bit-packed one would desynchronize the whole column.
const FrameVersion2 = 2

// FrameCodec selects the frame wire codec used when sealing blocks.
type FrameCodec int

const (
	// FrameDefault is the zero value: the v1 raw codec, preserving the
	// byte-exact behaviour of callers that predate v2.
	FrameDefault FrameCodec = iota
	// FrameV1 forces the raw little-endian payload of FrameVersion 1.
	FrameV1
	// FrameV2 forces the XOR-delta bit-packed payload of FrameVersion2.
	FrameV2
	// FrameAuto encodes v2 and keeps it only when strictly smaller than
	// the v1 encoding would be — the no-regression default for spill and
	// out-of-core paths.
	FrameAuto
)

// String names the codec for logs and bench reports.
func (c FrameCodec) String() string {
	switch c {
	case FrameV1:
		return "v1"
	case FrameV2:
		return "v2"
	case FrameAuto:
		return "auto"
	default:
		return "default"
	}
}

// AppendFrameCodec appends one frame encoding of blk under the chosen
// codec. FrameAuto compares the v2 encoding against the v1 size and keeps
// the smaller; empty blocks always encode as the 4-byte v1 empty frame.
func AppendFrameCodec(dst []byte, partition int, blk *Block, codec FrameCodec) []byte {
	switch codec {
	case FrameV2:
		if blk.Len() == 0 {
			return AppendFrame(dst, partition, blk)
		}
		return appendFrameV2(dst, partition, blk)
	case FrameAuto:
		if blk.Len() == 0 {
			return AppendFrame(dst, partition, blk)
		}
		mark := len(dst)
		dst = appendFrameV2(dst, partition, blk)
		if v1Len := FrameV1Len(partition, blk); len(dst)-mark >= v1Len {
			return AppendFrame(dst[:mark], partition, blk)
		}
		return dst
	default:
		return AppendFrame(dst, partition, blk)
	}
}

// ---------------------------------------------------------------------------
// Bit stream primitives (MSB-first)

// bitWriter packs bits MSB-first into a byte slice.
type bitWriter struct {
	buf   []byte
	dirty byte // partial byte under construction
	n     uint // bits already placed in dirty (always < 8 between calls)
}

func (w *bitWriter) writeBits(v uint64, nbits uint) {
	// Fast path: emit whole bytes as they fill.
	for nbits > 0 {
		take := 8 - w.n
		if take > nbits {
			take = nbits
		}
		w.dirty |= byte(v>>(nbits-take)) << (8 - w.n - take) & (0xFF >> w.n)
		w.n += take
		nbits -= take
		v &= (1 << nbits) - 1
		if w.n == 8 {
			w.buf = append(w.buf, w.dirty)
			w.dirty, w.n = 0, 0
		}
	}
}

func (w *bitWriter) writeBit(b uint64) { w.writeBits(b, 1) }

// finish flushes any partial byte (zero-padded) and returns the stream.
func (w *bitWriter) finish() []byte {
	if w.n > 0 {
		w.buf = append(w.buf, w.dirty)
		w.dirty, w.n = 0, 0
	}
	return w.buf
}

// bitReader consumes an MSB-first bitstream with overrun detection.
type bitReader struct {
	buf []byte
	pos int  // next byte index
	acc byte // current byte being consumed
	n   uint // bits remaining in acc
	err error
}

func (r *bitReader) readBits(nbits uint) uint64 {
	var v uint64
	for nbits > 0 {
		if r.n == 0 {
			if r.pos >= len(r.buf) {
				if r.err == nil {
					r.err = fmt.Errorf("points: frame v2 bitstream overrun")
				}
				return 0
			}
			r.acc = r.buf[r.pos]
			r.pos++
			r.n = 8
		}
		take := r.n
		if take > nbits {
			take = nbits
		}
		v = v<<take | uint64(r.acc>>(r.n-take))&((1<<take)-1)
		r.n -= take
		nbits -= take
	}
	return v
}

func (r *bitReader) readBit() uint64 { return r.readBits(1) }

// ---------------------------------------------------------------------------
// Encode

// appendFrameV2 appends the v2 encoding of a non-empty block.
func appendFrameV2(dst []byte, partition int, blk *Block) []byte {
	if partition < 0 {
		panic(fmt.Sprintf("points: negative partition id %d in frame", partition))
	}
	n, d := blk.Len(), blk.dim
	// Reserved at the raw payload's length — FrameAuto's cut-off, beyond
	// which the encoding is discarded anyway — so the buffer is allocated
	// once even on data that barely packs (uniform coordinates: 0.91).
	w := bitWriter{buf: make([]byte, 0, len(blk.coords)*8)}
	for j := 0; j < d; j++ {
		prev := math.Float64bits(blk.coords[j])
		w.writeBits(prev, 64)
		// Invalid window: sig 0 forces the first non-zero XOR onto the
		// '11' full-window branch.
		var win window
		for i := 1; i < n; i++ {
			cur := math.Float64bits(blk.coords[i*d+j])
			xor := cur ^ prev
			prev = cur
			switch {
			case xor == 0:
				w.writeBit(0)
			case win.fits(xor):
				w.writeBits(2, 2) // '10'
				w.writeBits(xor>>win.trail, win.sig)
			default:
				w.writeBits(3, 2) // '11'
				w.writeBits(uint64(win.lead), 6)
				w.writeBits(uint64(win.sig-1), 6)
				w.writeBits(xor>>win.trail, win.sig)
			}
		}
	}
	payload := w.finish()
	dst = append(dst, FrameVersion2)
	dst = binary.AppendUvarint(dst, uint64(partition))
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(d))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	dst = append(dst, crc[:]...)
	return append(dst, payload...)
}

// window is a v2 column's bit window: the leading and trailing zeros and
// the significant bits of the XOR that opened it. The zero window is
// invalid, so that the first non-zero XOR of a column opens one.
type window struct{ lead, trail, sig uint }

// fits says whether the non-zero xor's bits fit the window; when they do
// not, xor opens the window that replaces it.
func (w *window) fits(xor uint64) bool {
	l := min(uint(bits.LeadingZeros64(xor)), 63)
	t := uint(bits.TrailingZeros64(xor))
	if w.sig > 0 && l >= w.lead && t >= w.trail {
		return true
	}
	w.lead, w.trail, w.sig = l, t, 64-l-t
	return false
}

// FrameCodecLen is the exact length of AppendFrameCodec's frame of blk for
// partition under codec, computed without encoding it: what a writer that
// announces a frame's length before it writes the frame reads. Under v2 and
// FrameAuto it counts the bits appendFrameV2 would write.
func FrameCodecLen(partition int, blk *Block, codec FrameCodec) int {
	v1 := FrameV1Len(partition, blk)
	n := blk.Len()
	if n == 0 || (codec != FrameV2 && codec != FrameAuto) {
		return v1
	}
	nbits, d := 0, blk.dim
	for j := 0; j < d; j++ {
		nbits += 64
		prev := math.Float64bits(blk.coords[j])
		var win window
		for i := 1; i < n; i++ {
			cur := math.Float64bits(blk.coords[i*d+j])
			xor := cur ^ prev
			prev = cur
			switch {
			case xor == 0:
				nbits++
			case win.fits(xor):
				nbits += 2 + int(win.sig)
			default:
				nbits += 14 + int(win.sig)
			}
		}
	}
	packed := (nbits + 7) / 8
	v2 := 1 + uvarintLen(uint64(partition)) + uvarintLen(uint64(n)) + uvarintLen(uint64(d)) + uvarintLen(uint64(packed)) + 4 + packed
	if codec == FrameAuto && v2 >= v1 {
		return v1
	}
	return v2
}

// ---------------------------------------------------------------------------
// Decode

// frameHeaderV2 parses and validates a v2 frame header, returning the
// packed payload length and total header length (up to but excluding the
// payload). The bit-budget check bounds the later coordinate allocation:
// count×dim values need at least dim×64 + (count−1)×dim payload bits, so
// a lying count can never over-allocate relative to the input length.
func frameHeaderV2(b []byte) (partition int, count, dim uint64, packed, hdrLen int, err error) {
	if len(b) == 0 || b[0] != FrameVersion2 {
		return 0, 0, 0, 0, 0, fmt.Errorf("points: not a v2 frame")
	}
	off := 1
	part, n := binary.Uvarint(b[off:])
	if n <= 0 || !canonicalUvarint(part, n) {
		return 0, 0, 0, 0, 0, fmt.Errorf("points: bad frame partition")
	}
	off += n
	const maxPartition = 1 << 31
	if part > maxPartition {
		return 0, 0, 0, 0, 0, fmt.Errorf("points: implausible frame partition %d", part)
	}
	count, n = binary.Uvarint(b[off:])
	if n <= 0 || !canonicalUvarint(count, n) {
		return 0, 0, 0, 0, 0, fmt.Errorf("points: bad frame count")
	}
	off += n
	dim, n = binary.Uvarint(b[off:])
	if n <= 0 || !canonicalUvarint(dim, n) {
		return 0, 0, 0, 0, 0, fmt.Errorf("points: bad frame dimension")
	}
	off += n
	if dim > maxFrameDim {
		return 0, 0, 0, 0, 0, fmt.Errorf("points: implausible frame dimension %d", dim)
	}
	plen, n := binary.Uvarint(b[off:])
	if n <= 0 || !canonicalUvarint(plen, n) {
		return 0, 0, 0, 0, 0, fmt.Errorf("points: bad frame payload length")
	}
	off += n
	if len(b)-off < 4 {
		return 0, 0, 0, 0, 0, fmt.Errorf("points: truncated v2 frame checksum")
	}
	off += 4
	if plen > uint64(len(b)-off) {
		return 0, 0, 0, 0, 0, fmt.Errorf("points: truncated v2 frame: %d payload bytes exceed %d remaining",
			plen, len(b)-off)
	}
	if count > 0 {
		if dim == 0 {
			return 0, 0, 0, 0, 0, fmt.Errorf("points: frame with %d points but dimension 0", count)
		}
		minBits := dim*64 + (count-1)*dim
		if count > (1<<40) || dim > (1<<20) || minBits/dim != 64+(count-1) || plen*8 < minBits {
			return 0, 0, 0, 0, 0, fmt.Errorf("points: truncated v2 frame: %d×%d values exceed %d payload bytes",
				count, dim, plen)
		}
	} else if plen != 0 {
		return 0, 0, 0, 0, 0, fmt.Errorf("points: v2 frame with 0 points but %d payload bytes", plen)
	}
	return int(part), count, dim, int(plen), off, nil
}

// decodeFrameV2 consumes one v2 frame from the front of b, appending its
// points onto blk, and returns the owning partition and the unconsumed
// remainder. Checksum mismatches, bitstream overruns and header faults
// are errors, never panics or silent misreads.
func decodeFrameV2(blk *Block, b []byte) (partition int, rest []byte, err error) {
	part, count, dim, packed, hdr, err := frameHeaderV2(b)
	if err != nil {
		return 0, nil, err
	}
	payload := b[hdr : hdr+packed]
	rest = b[hdr+packed:]
	if count == 0 {
		return part, rest, nil
	}
	wantCRC := binary.LittleEndian.Uint32(b[hdr-4 : hdr])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return 0, nil, fmt.Errorf("points: v2 frame checksum mismatch (got %08x, want %08x)", got, wantCRC)
	}
	if blk.dim == 0 && len(blk.coords) == 0 {
		blk.dim = int(dim)
	}
	if int(dim) != blk.dim {
		return 0, nil, fmt.Errorf("points: decoding %d-dim frame into %d-dim block", dim, blk.dim)
	}
	d := int(dim)
	lo := len(blk.coords)
	rows := blk.grow(int(count) * d)
	r := bitReader{buf: payload}
	for j := 0; j < d; j++ {
		prev := r.readBits(64)
		rows[j] = math.Float64frombits(prev)
		var lead, sig uint = 0, 0
		for i := 1; i < int(count); i++ {
			var xor uint64
			if r.readBit() != 0 {
				if r.readBit() == 0 { // '10': previous window
					if sig == 0 {
						blk.coords = blk.coords[:lo]
						return 0, nil, fmt.Errorf("points: v2 frame reuses window before one is set")
					}
				} else { // '11': new window
					lead = uint(r.readBits(6))
					sig = uint(r.readBits(6)) + 1
					if lead+sig > 64 {
						blk.coords = blk.coords[:lo]
						return 0, nil, fmt.Errorf("points: v2 frame window %d+%d exceeds 64 bits", lead, sig)
					}
				}
				xor = r.readBits(sig) << (64 - lead - sig)
			}
			prev ^= xor
			rows[i*d+j] = math.Float64frombits(prev)
		}
	}
	if r.err != nil {
		blk.coords = blk.coords[:lo]
		return 0, nil, r.err
	}
	return part, rest, nil
}
