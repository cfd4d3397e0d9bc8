package sequencefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Record{
		{[]byte("k1"), []byte("v1")},
		{[]byte(""), []byte("empty key")},
		{[]byte("empty value"), []byte("")},
		{[]byte("big"), bytes.Repeat([]byte{0xAB}, 100000)},
	}
	for _, rec := range recs {
		if err := w.Append(rec.Key, rec.Value); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != len(recs) {
		t.Errorf("Count = %d, want %d", w.Count(), len(recs))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i].Key, recs[i].Key) || !bytes.Equal(got[i].Value, recs[i].Value) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("read %d records from empty file", len(got))
	}
}

func TestMissingHeader(t *testing.T) {
	_, err := ReadAll(bytes.NewReader(nil))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := ReadAll(bytes.NewReader([]byte("NOPE\x01")))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// TestBadVersion: a header of any version but 1 is refused — among them 2,
// the DEFLATE-compressed stream older writers produced.
func TestBadVersion(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	v2 := append([]byte("SKSF\x02"), buf.Bytes()[5:]...)
	for _, file := range [][]byte{[]byte("SKSF\x07"), v2} {
		_, err := ReadAll(bytes.NewReader(file))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", file[4])) {
			t.Errorf("version %d: err = %v, want ErrCorrupt for an unsupported version", file[4], err)
		}
	}
}

func TestBitFlipDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append([]byte("key"), []byte("value-to-corrupt")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a bit inside the value region (past header + varints + key).
	data[len(data)-6] ^= 0x01
	_, err := ReadAll(bytes.NewReader(data))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted record read back without error: %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append([]byte("key"), bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data) - 1, len(data) - 10, 6} {
		_, err := ReadAll(bytes.NewReader(data[:cut]))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d undetected: %v", cut, err)
		}
	}
}

func TestNextAfterEOF(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append([]byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("first post-end Next = %v, want EOF", err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("second post-end Next = %v, want EOF", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(pairs [][2][]byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, p := range pairs {
			if err := w.Append(p[0], p[1]); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(pairs) {
			return false
		}
		for i, p := range pairs {
			if !bytes.Equal(got[i].Key, p[0]) || !bytes.Equal(got[i].Value, p[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReturnedSlicesAreOwned(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	first, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if string(first.Key) != "k1" || string(first.Value) != "v1" {
		t.Error("earlier record mutated by later read")
	}
}

func BenchmarkWriteRead(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	key := make([]byte, 16)
	val := make([]byte, 128)
	rng.Read(key)
	rng.Read(val)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for j := 0; j < 100; j++ {
			if err := w.Append(key, val); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadAll(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOversizedHeaderDoesNotOverAllocate: a corrupt length header
// declaring far more data than the stream holds must fail fast without
// allocating anywhere near the declared size. Frame spills put one
// multi-KB frame per record, so a flipped length byte can easily claim
// hundreds of megabytes.
func TestOversizedHeaderDoesNotOverAllocate(t *testing.T) {
	const declared = 1 << 29 // 512 MiB, inside the maxLen sanity bound
	stream := []byte("SKSF\x01\x00")
	var hdr [10]byte
	n := binary.PutUvarint(hdr[:], declared)
	stream = append(stream, hdr[:n]...)
	stream = append(stream, bytes.Repeat([]byte{0xCD}, 1024)...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(stream)).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized record error = %v, want ErrCorrupt", err)
	}
	// Only ~1 KiB was actually present; allocation must stay bounded by
	// the chunked growth policy, not the 512 MiB the header lied about.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("reading truncated oversized record allocated %d bytes", grew)
	}
}

// TestReadCappedLargeRecord: genuinely large records (above the 1 MiB
// pre-size cap) still round-trip intact through the chunked reader.
func TestReadCappedLargeRecord(t *testing.T) {
	val := make([]byte, readChunk*3+12345)
	rnd := rand.New(rand.NewSource(77))
	rnd.Read(val)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append([]byte("big"), val); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0].Value, val) {
		t.Fatal("large record did not round-trip")
	}
}
