package points

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encode serializes a point as little-endian float64s prefixed by a uvarint
// dimension count. The format is the wire/value encoding used by the
// MapReduce jobs and the RPC engine.
func Encode(p Point) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+8*len(p))
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	for _, v := range p {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// Decode parses a point produced by Encode. It rejects trailing garbage,
// truncated input, and non-canonical varint framing (every valid encoding
// round-trips byte-for-byte).
func Decode(b []byte) (Point, error) {
	d, n := binary.Uvarint(b)
	if n <= 0 || !canonicalUvarint(d, n) {
		return nil, fmt.Errorf("points: bad dimension header")
	}
	const maxDim = 1 << 20
	if d > maxDim {
		return nil, fmt.Errorf("points: implausible dimension %d", d)
	}
	rest := b[n:]
	if len(rest) != int(d)*8 {
		return nil, fmt.Errorf("points: encoded point has %d payload bytes, want %d", len(rest), d*8)
	}
	p := make(Point, d)
	for i := range p {
		p[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
	}
	return p, nil
}

// DecodeInto decodes like Decode but reuses dst's backing array when its
// capacity suffices, allocating only on growth. The returned slice aliases
// dst; callers that retain the point across calls must copy it. This is
// the mapper hot path, where the decoded point only lives for one Assign.
func DecodeInto(dst Point, b []byte) (Point, error) {
	d, n := binary.Uvarint(b)
	if n <= 0 || !canonicalUvarint(d, n) {
		return nil, fmt.Errorf("points: bad dimension header")
	}
	const maxDim = 1 << 20
	if d > maxDim {
		return nil, fmt.Errorf("points: implausible dimension %d", d)
	}
	rest := b[n:]
	if len(rest) != int(d)*8 {
		return nil, fmt.Errorf("points: encoded point has %d payload bytes, want %d", len(rest), d*8)
	}
	if uint64(cap(dst)) < d {
		dst = make(Point, d)
	} else {
		dst = dst[:d]
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
	}
	return dst, nil
}

// canonicalUvarint reports whether value v would re-encode to exactly n
// bytes — rejecting padded (non-minimal) varints so the wire format
// round-trips byte-for-byte. The scratch array stays on the stack; this
// runs once per decoded point on the shuffle hot path.
func canonicalUvarint(v uint64, n int) bool {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], v) == n
}
