package points

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Frame wire format (version 1) — the unit of the block-framed shuffle.
// A frame packs every point of one partition that one map task produced
// into a single record with a 4-field header and a contiguous coordinate
// payload in the Block's SoA layout:
//
//	version   byte     1
//	partition uvarint  owning partition id
//	count     uvarint  number of points
//	dim       uvarint  coordinates per point (0 only when count is 0)
//	coords    [count*dim*8]byte  little-endian float64, row-major
//
// Frames are self-delimiting, so a shuffle "stream" is just frames
// back-to-back; DecodeFrame consumes one frame and returns the rest.
// The leading version byte gates format evolution: readers reject
// unknown versions instead of misparsing them.
const FrameVersion = 1

// maxFrameDim mirrors the per-point codec's plausibility bound.
const maxFrameDim = 1 << 20

// AppendFrame appends the encoding of one frame — every row of blk, owned
// by partition id — onto dst and returns the extended slice. An empty
// block encodes as a valid zero-count frame. dst grows at most once: to
// exactly the frame's length (FrameV1Len) when it is empty, by half again
// when the frame extends a stream already there.
func AppendFrame(dst []byte, partition int, blk *Block) []byte {
	if partition < 0 {
		panic(fmt.Sprintf("points: negative partition id %d in frame", partition))
	}
	dst = reserve(dst, FrameV1Len(partition, blk))
	n := blk.Len()
	dst = append(dst, FrameVersion)
	dst = binary.AppendUvarint(dst, uint64(partition))
	dst = binary.AppendUvarint(dst, uint64(n))
	if n == 0 {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(blk.dim))
	// The payload is stored with indexed writes: one capacity check per
	// frame instead of one per coordinate.
	lo := len(dst)
	dst = dst[:lo+len(blk.coords)*8]
	for i, v := range blk.coords {
		binary.LittleEndian.PutUint64(dst[lo+i*8:], math.Float64bits(v))
	}
	return dst
}

// FrameV1Len is the exact length of blk's v1 frame for partition, computed
// without encoding it: what a writer reserves before it seals a stream. It
// bounds FrameAuto's frame, which keeps v2 only when it is shorter, and v2's
// on data that packs at all.
func FrameV1Len(partition int, blk *Block) int {
	n := blk.Len()
	l := 1 + uvarintLen(uint64(partition)) + uvarintLen(uint64(n))
	if n == 0 {
		return l + 1
	}
	return l + uvarintLen(uint64(blk.dim)) + len(blk.coords)*8
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// reserve returns s with room for n more elements: exactly n when s is
// empty, so that a frame written or decoded into an empty destination takes
// what it holds and no more, and by half again when the elements extend
// ones already there, so that a long run of appends stays amortised.
func reserve[E any](s []E, n int) []E {
	need := len(s) + n
	if cap(s) >= need {
		return s
	}
	size := need
	if len(s) > 0 {
		size += need / 2
	}
	return append(make([]E, 0, size), s...)
}

// frameHeader parses and validates a frame header, returning the owning
// partition, point count, dimension and the header's encoded length.
// Validation rejects unknown versions, non-canonical varints, implausible
// dimensions, and counts that could not fit in the remaining bytes — the
// last check bounds every later allocation by the input length, so a
// lying header can never cause over-allocation.
func frameHeader(b []byte) (partition int, count, dim uint64, hdrLen int, err error) {
	if len(b) == 0 {
		return 0, 0, 0, 0, fmt.Errorf("points: empty frame")
	}
	if b[0] != FrameVersion {
		return 0, 0, 0, 0, fmt.Errorf("points: unsupported frame version %d", b[0])
	}
	off := 1
	part, n := binary.Uvarint(b[off:])
	if n <= 0 || !canonicalUvarint(part, n) {
		return 0, 0, 0, 0, fmt.Errorf("points: bad frame partition")
	}
	off += n
	const maxPartition = 1 << 31
	if part > maxPartition {
		return 0, 0, 0, 0, fmt.Errorf("points: implausible frame partition %d", part)
	}
	count, n = binary.Uvarint(b[off:])
	if n <= 0 || !canonicalUvarint(count, n) {
		return 0, 0, 0, 0, fmt.Errorf("points: bad frame count")
	}
	off += n
	dim, n = binary.Uvarint(b[off:])
	if n <= 0 || !canonicalUvarint(dim, n) {
		return 0, 0, 0, 0, fmt.Errorf("points: bad frame dimension")
	}
	off += n
	if dim > maxFrameDim {
		return 0, 0, 0, 0, fmt.Errorf("points: implausible frame dimension %d", dim)
	}
	if count > 0 {
		if dim == 0 {
			return 0, 0, 0, 0, fmt.Errorf("points: frame with %d points but dimension 0", count)
		}
		// Bounds count by what the payload can actually hold before any
		// allocation, and doubles as the uint64 overflow guard.
		if count > uint64(len(b)-off)/(dim*8) {
			return 0, 0, 0, 0, fmt.Errorf("points: truncated frame: %d×%d points exceed %d payload bytes",
				count, dim, len(b)-off)
		}
	}
	return int(part), count, dim, off, nil
}

// FrameHeader reads the header of the first frame in b, v1 or v2, without
// decoding its coordinates: the owning partition, the point count and
// dimension, and the frame's total encoded length. A reader walks a sealed
// stream frame by frame with it, and sizes what it decodes into before it
// decodes anything.
func FrameHeader(b []byte) (partition, count, dim, length int, err error) {
	if len(b) > 0 && b[0] == FrameVersion2 {
		p, c, d, packed, hdr, err := frameHeaderV2(b)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		return p, int(c), int(d), hdr + packed, nil
	}
	p, c, d, hdr, err := frameHeader(b)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return p, int(c), int(d), hdr + int(c*d)*8, nil
}

// DecodeFrame consumes one frame from the front of b, appending its
// points onto blk with no per-point allocation, and returns the owning
// partition id and the unconsumed remainder of b. On a dimension-
// inferring block the first non-empty frame fixes the dimension; later
// mismatches are errors. Framing faults (truncation, bad varints, version
// or dimension nonsense) are errors, never panics.
func DecodeFrame(blk *Block, b []byte) (partition int, rest []byte, err error) {
	if len(b) > 0 && b[0] == FrameVersion2 {
		return decodeFrameV2(blk, b)
	}
	part, count, dim, hdr, err := frameHeader(b)
	if err != nil {
		return 0, nil, err
	}
	payload := b[hdr:]
	total := int(count * dim)
	if count == 0 {
		return part, payload, nil
	}
	if blk.dim == 0 && len(blk.coords) == 0 {
		blk.dim = int(dim)
	}
	if int(dim) != blk.dim {
		return 0, nil, fmt.Errorf("points: decoding %d-dim frame into %d-dim block", dim, blk.dim)
	}
	// Grow once for the whole frame, then decode with indexed stores.
	row := blk.grow(total)
	for i := range row {
		row[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return part, payload[total*8:], nil
}

// AppendFrameRows appends rows as one v1 frame — AppendFrame's bytes for
// BlockOf(rows), without building the block: how a split of an in-memory
// set becomes a map task's input. Rows of differing dimension are an error.
func AppendFrameRows(dst []byte, partition int, rows Set) ([]byte, error) {
	d := rows.Dim()
	dst = append(dst, FrameVersion)
	dst = binary.AppendUvarint(dst, uint64(partition))
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	dst = binary.AppendUvarint(dst, uint64(d))
	for i, p := range rows {
		if len(p) != d {
			return nil, fmt.Errorf("points: point %d has dimension %d, want %d", i, len(p), d)
		}
		for _, v := range p {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst, nil
}

// WalkFrames decodes a frame stream row by row: each frame of b is decoded,
// as DecodeFrame decodes it, into scratch — emptied before every frame; nil
// is a block of the walk's own — and its rows go to fn in order, each valid
// for the call only. The block keeps its dimension from frame to frame, so
// — as when a stream is decoded into one block — the first non-empty frame
// fixes it and a later mismatch is an error. Memory is the longest frame's,
// and none once scratch carries it: a caller that walks stream after stream
// hands every walk the one block. It returns the number of rows fn
// accepted.
func WalkFrames(b []byte, scratch *Block, fn func(row []float64) error) (rows int, err error) {
	if scratch == nil {
		scratch = new(Block)
	}
	scratch.Clear()
	for len(b) > 0 {
		scratch.Reset()
		if _, b, err = DecodeFrame(scratch, b); err != nil {
			return rows, err
		}
		for i, n := 0, scratch.Len(); i < n; i++ {
			if err := fn(scratch.Row(i)); err != nil {
				return rows, err
			}
			rows++
		}
	}
	return rows, nil
}
