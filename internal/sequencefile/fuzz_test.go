package sequencefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the reader: it must never panic and
// must either produce records or a wrapped ErrCorrupt/EOF.
func FuzzReader(f *testing.F) {
	// Seed with a valid file, a truncation, and garbage.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Append([]byte("key"), []byte("value"))
	_ = w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("SKSF\x01garbage"))
	f.Add([]byte{})
	f.Add([]byte("SKSF\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))

	// A frame-sized record (multi-KB value, like one shuffle frame per
	// record in .fseq spills) truncated mid-value.
	var frameBuf bytes.Buffer
	fw := NewWriter(&frameBuf)
	_ = fw.Append(nil, bytes.Repeat([]byte{0x3f}, 4096))
	_ = fw.Flush()
	f.Add(frameBuf.Bytes()[:frameBuf.Len()/2])

	// An oversized record: the length header declares half a gigabyte
	// but only a few bytes follow. The reader must error, not allocate
	// the declared size or panic.
	over := []byte("SKSF\x01\x00") // header, keyLen=0
	var hdr [10]byte
	n := binary.PutUvarint(hdr[:], 1<<29)
	over = append(over, hdr[:n]...)
	over = append(over, bytes.Repeat([]byte{0xAB}, 64)...)
	f.Add(over)

	// A valid record stream under the retired version-2 header, whole and
	// truncated: refused at the header either way.
	v2 := append([]byte("SKSF\x02"), valid[5:]...)
	f.Add(v2)
	f.Add(v2[:len(v2)-4])

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			_, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unexpected error type: %v", err)
				}
				return
			}
		}
	})
}

// FuzzRoundTrip checks that whatever we write, we read back verbatim.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("key"), []byte("value"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xff, 0x00}, bytes.Repeat([]byte{7}, 300))

	f.Fuzz(func(t *testing.T, key, value []byte) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Append(key, value); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadAll(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || !bytes.Equal(recs[0].Key, key) || !bytes.Equal(recs[0].Value, value) {
			t.Fatalf("round trip mismatch")
		}
	})
}
