package mapreduce

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/points"
)

// writeTestFrameSpill seals a few frames into one spill file and returns
// the path plus the frames as written.
func writeTestFrameSpill(t *testing.T) (string, [][]byte) {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{Name: "spilltest", SpillDir: dir}
	var stream []byte
	var frames [][]byte
	for i := 0; i < 4; i++ {
		blk := points.NewBlock(3, 8)
		for p := 0; p < 5+i; p++ {
			blk.AppendRow([]float64{float64(i), float64(p), float64(i * p)})
		}
		frame := points.AppendFrame(nil, i, blk)
		frames = append(frames, frame)
		stream = append(stream, frame...)
	}
	files, err := spillFrameStreams(cfg, 0, [][]byte{stream}, NewCounters())
	if err != nil {
		t.Fatalf("spillFrameStreams: %v", err)
	}
	return files[0], frames
}

func TestFrameSpillReaderStreams(t *testing.T) {
	name, want := writeTestFrameSpill(t)
	r, err := openFrameSpill(name)
	if err != nil {
		t.Fatalf("openFrameSpill: %v", err)
	}
	var got [][]byte
	for {
		frame, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, frame)
	}
	r.Close()
	if len(got) != len(want) {
		t.Fatalf("%d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("frame %d not byte-identical", i)
		}
	}
}

func TestFrameSpillTruncatedTyped(t *testing.T) {
	name, _ := writeTestFrameSpill(t)
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}

	// Chop the file mid-record: the reader must surface ErrSpillTruncated,
	// not io.EOF (a silent short read).
	cut := filepath.Join(t.TempDir(), "cut.fseq")
	if err := os.WriteFile(cut, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := openFrameSpill(cut)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sawTruncated := false
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !errors.Is(err, ErrSpillTruncated) {
				t.Fatalf("want ErrSpillTruncated, got %v", err)
			}
			sawTruncated = true
			break
		}
	}
	if !sawTruncated {
		t.Fatal("truncated spill read to EOF without a typed error")
	}

	// Flip a payload byte: checksum failure is the same typed error.
	data[len(data)-10] ^= 0xFF
	bad := filepath.Join(t.TempDir(), "bad.fseq")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rb, err := openFrameSpill(bad)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	for err = nil; err == nil; {
		_, err = rb.Next()
	}
	if !errors.Is(err, ErrSpillTruncated) {
		t.Fatalf("corrupt spill: want ErrSpillTruncated, got %v", err)
	}
}

// drainFrameSpill reads a spill file back as the frames it was written
// from, in order, through the reader the reduce tasks use.
func drainFrameSpill(t *testing.T, name string) [][]byte {
	t.Helper()
	r, err := openFrameSpill(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var frames [][]byte
	for {
		frame, err := r.Next()
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
}
