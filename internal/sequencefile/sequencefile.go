// Package sequencefile implements a minimal binary key-value record format
// in the spirit of Hadoop's SequenceFile, used for the budgeted skyline
// fold's overflow files and the index's snapshots.
//
// File layout:
//
//	magic   [4]byte  "SKSF"
//	version uint8    1
//	records:
//	  keyLen   uvarint
//	  valueLen uvarint
//	  key      [keyLen]byte
//	  value    [valueLen]byte
//	  crc      uint32 (little-endian) — CRC-32 (IEEE) of key||value
//
// The format is self-delimiting and detects torn or corrupted records via
// the per-record checksum. A header of any other version is refused as
// corrupt.
package sequencefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

var magic = [4]byte{'S', 'K', 'S', 'F'}

const version = 1

// ErrCorrupt is returned (wrapped) when a record fails its checksum or the
// header is malformed.
var ErrCorrupt = errors.New("sequencefile: corrupt data")

// Record is one key-value pair.
type Record struct {
	Key   []byte
	Value []byte
}

// Writer appends records to an underlying stream.
type Writer struct {
	out     *bufio.Writer
	started bool
	n       int
}

// NewWriter creates a Writer. The header is written lazily on the first
// Append so that creating a writer is infallible.
func NewWriter(w io.Writer) *Writer {
	return &Writer{out: bufio.NewWriterSize(w, 1<<16)}
}

func (w *Writer) writeHeader() error {
	if w.started {
		return nil
	}
	if _, err := w.out.Write(magic[:]); err != nil {
		return err
	}
	if err := w.out.WriteByte(version); err != nil {
		return err
	}
	w.started = true
	return nil
}

// Append writes one record.
func (w *Writer) Append(key, value []byte) error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(key)))
	n += binary.PutUvarint(hdr[n:], uint64(len(value)))
	if _, err := w.out.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.out.Write(key); err != nil {
		return err
	}
	if _, err := w.out.Write(value); err != nil {
		return err
	}
	crc := crc32.ChecksumIEEE(key)
	crc = crc32.Update(crc, crc32.IEEETable, value)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc)
	if _, err := w.out.Write(crcBuf[:]); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count returns the number of records appended so far.
func (w *Writer) Count() int { return w.n }

// Flush writes buffered data to the underlying stream. An empty file (no
// Append calls) still gets a valid header so readers accept it.
func (w *Writer) Flush() error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	return w.out.Flush()
}

// Reader iterates over records of a stream produced by Writer.
type Reader struct {
	r      *bufio.Reader
	header bool
}

// NewReader creates a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

func (r *Reader) readHeader() error {
	var hdr [5]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: missing or truncated header", ErrCorrupt)
		}
		return err
	}
	if hdr[0] != magic[0] || hdr[1] != magic[1] || hdr[2] != magic[2] || hdr[3] != magic[3] {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:4])
	}
	if hdr[4] != version {
		return fmt.Errorf("%w: unsupported version %d", ErrCorrupt, hdr[4])
	}
	r.header = true
	return nil
}

// Next returns the next record, or io.EOF after the last one. The returned
// slices are freshly allocated and owned by the caller.
func (r *Reader) Next() (Record, error) {
	if !r.header {
		if err := r.readHeader(); err != nil {
			return Record{}, err
		}
	}
	keyLen, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: key length: %v", ErrCorrupt, err)
	}
	valLen, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Record{}, fmt.Errorf("%w: value length: %v", ErrCorrupt, err)
	}
	const maxLen = 1 << 30
	if keyLen > maxLen || valLen > maxLen {
		return Record{}, fmt.Errorf("%w: implausible record size %d/%d", ErrCorrupt, keyLen, valLen)
	}
	var rec Record
	if rec.Key, err = readCapped(r.r, keyLen); err != nil {
		return Record{}, fmt.Errorf("%w: truncated key: %v", ErrCorrupt, err)
	}
	if rec.Value, err = readCapped(r.r, valLen); err != nil {
		return Record{}, fmt.Errorf("%w: truncated value: %v", ErrCorrupt, err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r.r, crcBuf[:]); err != nil {
		return Record{}, fmt.Errorf("%w: truncated checksum: %v", ErrCorrupt, err)
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	got := crc32.ChecksumIEEE(rec.Key)
	got = crc32.Update(got, crc32.IEEETable, rec.Value)
	if got != want {
		return Record{}, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	return rec, nil
}

// readChunk bounds how far ahead of delivered data the reader will
// allocate. Buffers are pre-sized from the record-length header up to
// this cap, then grow geometrically (still capped by n) only as
// io.ReadFull actually delivers bytes — so a forged multi-gigabyte
// length in a corrupt or truncated stream costs at most one chunk
// before the read errors, instead of the full declared size.
const readChunk = 1 << 20

// readCapped reads exactly n bytes from r with allocation capped as
// described on readChunk. On truncation it returns io.ErrUnexpectedEOF
// (or the underlying read error) and the caller discards the partial
// buffer.
func readCapped(r io.Reader, n uint64) ([]byte, error) {
	pre := n
	if pre > readChunk {
		pre = readChunk
	}
	buf := make([]byte, 0, pre)
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			// All delivered bytes accounted for; trust the header a
			// little further. Doubling keeps total copying linear while
			// never allocating more than 2x what the stream has proven.
			grow := uint64(cap(buf)) * 2
			if grow > n {
				grow = n
			}
			next := make([]byte, len(buf), grow)
			copy(next, buf)
			buf = next
		}
		step := uint64(cap(buf)) - uint64(len(buf))
		if rem := n - uint64(len(buf)); step > rem {
			step = rem
		}
		start := len(buf)
		buf = buf[:start+int(step)]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// ReadAll drains the reader into a slice. It is a convenience for tests
// and small files.
func ReadAll(r io.Reader) ([]Record, error) {
	sr := NewReader(r)
	var out []Record
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
