package driver

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/sequencefile"
	"repro/internal/skyline"
)

func TestSnapshotRoundTrip(t *testing.T) {
	data := uniformSet(81, 600, 3)
	ix, err := BuildIndex(context.Background(), data, Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ix.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadIndex(context.Background(), bytes.NewReader(blob), Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(restored.Global(), ix.Global()) {
		t.Error("restored global skyline differs")
	}
	if restored.Size() != ix.Size() {
		t.Errorf("restored size %d, want %d", restored.Size(), ix.Size())
	}
}

func TestSnapshotRestoreSupportsAdds(t *testing.T) {
	data := uniformSet(82, 400, 2)
	ix, err := BuildIndex(context.Background(), data, Options{Scheme: partition.Grid})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ix.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadIndex(context.Background(), bytes.NewReader(blob), Options{Scheme: partition.Grid})
	if err != nil {
		t.Fatal(err)
	}
	// Adds after restore stay correct versus a batch recompute over the
	// retained working set plus the new points.
	adds := uniformSet(83, 100, 2)
	for _, p := range adds {
		if _, _, err := restored.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	var working points.Set
	working = append(working, data...)
	working = append(working, adds...)
	want := skyline.Naive(working)
	if !sameMultiset(restored.Global(), want) {
		t.Errorf("post-restore adds diverged: %d vs %d points", len(restored.Global()), len(want))
	}
}

func TestSnapshotErrors(t *testing.T) {
	if _, err := LoadIndex(context.Background(), strings.NewReader(""), Options{}); err == nil {
		t.Error("empty snapshot accepted")
	}
	if _, err := LoadIndex(context.Background(), strings.NewReader("not a snapshot at all"), Options{}); err == nil {
		t.Error("garbage snapshot accepted")
	}
	// Valid container, wrong first record.
	var buf bytes.Buffer
	ixData := uniformSet(84, 50, 2)
	ix, err := BuildIndex(context.Background(), ixData, Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// Corrupt a byte in the middle: the checksummed container must reject.
	corrupted := append([]byte(nil), blob...)
	corrupted[len(corrupted)/2] ^= 0xFF
	if _, err := LoadIndex(context.Background(), bytes.NewReader(corrupted), Options{}); err == nil {
		t.Error("corrupted snapshot accepted")
	}
}

// TestLoadIndexValidatesEveryRow: the restored partitioner is fitted to a
// sample of the snapshot's union, so a non-finite row the sample does not
// draw must be refused as it is decoded, in package points' words.
func TestLoadIndexValidatesEveryRow(t *testing.T) {
	union := uniformSet(85, 3*4096, 3)
	bad := fitRow(t, union, len(union)/2, false)
	union[bad] = points.Point{1, math.NaN(), 2}
	var buf bytes.Buffer
	w := sequencefile.NewWriter(&buf)
	if err := w.Append([]byte("meta"), []byte(`{"version":1,"dim":3,"partitions":8}`)); err != nil {
		t.Fatal(err)
	}
	for _, p := range union {
		if err := w.Append([]byte("0"), points.Encode(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ix, err := LoadIndex(context.Background(), &buf, Options{Scheme: partition.Angular})
	if want := (points.Point{1, math.NaN(), 2}).Validate().Error(); err == nil || err.Error() != want {
		t.Fatalf("LoadIndex = %v, %v; want error %q", ix, err, want)
	}
}
