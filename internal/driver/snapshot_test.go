package driver

import (
	"bytes"
	"context"
	"math"
	"runtime"
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

// TestLoadIndexRejectsKeysOutsideTheTable: a partition key is an index
// into the restored shard table, so a negative one (whose rows no local
// skyline would hold) and one at or past the header's partition count
// (which would size the table) are refused by name, and so is a header
// whose count is past MaxPartitions — a ~100-byte snapshot declaring four
// million partitions, with one row under the last key, would size a 96 MB
// table — before anything is sized from it. Save declares the table it
// holds, so a table wider than the options' partitioner still survives a
// second round trip.
func TestLoadIndexRejectsKeysOutsideTheTable(t *testing.T) {
	header := `{"version":1,"dim":2,"partitions":8}`
	snapshot := func(keys ...string) *bytes.Buffer {
		t.Helper()
		var buf bytes.Buffer
		w := sequencefile.NewWriter(&buf)
		if err := w.Append([]byte("meta"), []byte(header)); err != nil {
			t.Fatal(err)
		}
		for i, key := range keys {
			if err := w.Append([]byte(key), points.Encode(points.Point{float64(1 + i), float64(9 - i)})); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	opts := Options{Scheme: partition.Angular, Partitions: 2}
	for _, bad := range []string{"-1", "8", "1000000000"} {
		ix, err := LoadIndex(context.Background(), snapshot("0", bad), opts)
		if want := `driver: snapshot partition key "` + bad + `" outside [0, 8)`; err == nil || err.Error() != want {
			t.Errorf("key %s: LoadIndex = %v, %v; want error %q", bad, ix, err, want)
		}
	}

	header = `{"version":1,"dim":2,"partitions":4000000}`
	huge := snapshot("3999999")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	ix, err := LoadIndex(context.Background(), huge, opts)
	runtime.ReadMemStats(&ms)
	if want := "driver: snapshot partitions 4000000 outside [1, 1048576]"; err == nil || err.Error() != want {
		t.Errorf("4 M partitions: LoadIndex = %v, %v; want error %q", ix, err, want)
	}
	if allocated := ms.TotalAlloc - before; allocated > 1<<20 {
		t.Errorf("refusing a 4 M-partition header allocated %d bytes, want under 1 MiB", allocated)
	}

	header = `{"version":1,"dim":2,"partitions":8}`
	ix, err = LoadIndex(context.Background(), snapshot("0", "7"), opts)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ix.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	again, err := LoadIndex(context.Background(), bytes.NewReader(blob), opts)
	if err != nil {
		t.Fatalf("a snapshot of a restored 8-slot table: %v", err)
	}
	if got := again.LocalSkyline(7); !sameMultiset(got, points.Set{{2, 8}}) {
		t.Errorf("partition 7 after two round trips holds %v, want [[2 8]]", got)
	}
}
