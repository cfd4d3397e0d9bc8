package driver

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
)

// TestMapSideAllocatesNothingPerPoint pins the record-free map side: a
// whole Compute — validation, fit, both jobs — on 100 000 points costs a
// few thousand allocations (blocks, streams, the result), not one per
// point, and so does a whole ComputeSkyband, which runs the same jobs. An
// encode-into-[][]byte round trip, or accumulators that do not survive
// from task to task, would put this back near 1.0 (the band's Pair route
// read 3.0).
func TestMapSideAllocatesNothingPerPoint(t *testing.T) {
	const n, d = 100000, 6
	data := uniformSet(42, n, d)
	opts := Options{Scheme: partition.Angular, Nodes: 4}
	for name, run := range map[string]func() error{
		"Compute": func() error {
			_, _, err := Compute(context.Background(), data, opts)
			return err
		},
		"ComputeSkyband": func() error {
			_, _, err := ComputeSkyband(context.Background(), data, 2, opts)
			return err
		},
	} {
		if err := run(); err != nil { // warm the accumulator pools
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perPoint := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("%s: %.4f mallocs/point, %.1f bytes/point", name, perPoint, float64(after.TotalAlloc-before.TotalAlloc)/n)
		if perPoint >= 0.05 {
			t.Errorf("%s allocated %.3f times per point, want < 0.05", name, perPoint)
		}
	}
}

// TestFitAllocatesPerSample pins the other per-point cost the prologue
// once had: the angular fit draws its sample in O(sample), so fitting a
// million points allocates a sample's worth of memory — the index
// permutation it used to shuffle was 8 MB on its own.
func TestFitAllocatesPerSample(t *testing.T) {
	data := uniformSet(43, 1000000, 6)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := partition.New(partition.Angular, data, 8); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("partition.New allocated %d bytes on 1M points, want < 1 MB", got)
	}
}

// TestPartitionCountsAreTheHistogram: occupancy now comes from the
// engine's routed-point tallies (or the pruning pre-pass), not from a
// per-point counter in the mapper; it must still be exactly the
// assignment histogram, pruned cells and empty partitions included.
func TestPartitionCountsAreTheHistogram(t *testing.T) {
	data := dupSet(5, 3000, 3)
	for _, scheme := range allSchemes() {
		for _, noPrune := range []bool{false, true} {
			run := Compute
			if noPrune { // the seam's run of the same job, handed no mask
				run = func(ctx context.Context, data points.Set, opts Options) (points.Set, *Stats, error) {
					return computeEdited(ctx, data, 0, opts, asIs)
				}
			}
			_, stats, err := run(context.Background(), data, Options{Scheme: scheme, Nodes: 4})
			if err != nil {
				t.Fatal(err)
			}
			part, err := partition.New(scheme, data, 8)
			if err != nil {
				t.Fatal(err)
			}
			want, err := partition.Histogram(part, data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stats.PartitionCounts, want) {
				t.Errorf("%v noPrune=%v: PartitionCounts %v, histogram %v", scheme, noPrune, stats.PartitionCounts, want)
			}
		}
	}

	src, err := dataset.NewSource(dataset.KindIndependent, 9, 4000, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.New(partition.Angular, uniformSet(1, 500, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := computeOn(context.Background(), mapreduce.ChunkRows(src), 4, 0, part,
		Options{Scheme: partition.Angular, Nodes: 4, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, part.Partitions())
	blk := points.NewBlock(0, 0)
	for c := 0; c < src.Chunks(); c++ {
		blk.Clear()
		if err := src.ReadChunk(c, blk); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < blk.Len(); i++ {
			id, err := part.Assign(blk.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			want[id]++
		}
	}
	if !reflect.DeepEqual(stats.PartitionCounts, want) {
		t.Errorf("stream: PartitionCounts %v, histogram %v", stats.PartitionCounts, want)
	}
}

// TestHostileInputErrorParity: the fit reads a sample and Job 1's map pass
// validates every row, and neither may change what a caller sees — every
// hostile set is rejected with the reference check's wording under this
// package's prefix, naming its lowest offending row. The large sets, 3× the
// fit's sample, put a bad row where the sample does not reach it, so only
// the map pass can find it — and one of them a second bad row, above it,
// that fails the fit; no failed job leaves a spill file or a goroutine
// behind.
func TestHostileInputErrorParity(t *testing.T) {
	clean := uniformSet(3, 200, 3)
	with := func(mutate func(points.Set) points.Set) points.Set { return mutate(clean.Clone()) }
	hostile := map[string]points.Set{
		"NaN in the last point": with(func(s points.Set) points.Set { s[len(s)-1][2] = math.NaN(); return s }),
		"+Inf":                  with(func(s points.Set) points.Set { s[17][0] = math.Inf(1); return s }),
		"-Inf":                  with(func(s points.Set) points.Set { s[0][1] = math.Inf(-1); return s }),
		"dimension mismatch":    with(func(s points.Set) points.Set { s[100] = points.Point{1, 2}; return s }),
		"zero-dim first point":  with(func(s points.Set) points.Set { s[0] = points.Point{}; return s }),
		"empty set":             {},
	}
	big := uniformSet(4, 3*4096, 3)
	unsampled := fitRow(t, big, len(big)/3, false)
	sampled := fitRow(t, big, unsampled+1, true)
	for name, bad := range map[string]points.Point{
		"NaN":                {1, math.NaN(), 2},
		"+Inf":               {math.Inf(1), 1, 2},
		"-Inf":               {1, 2, math.Inf(-1)},
		"dimension mismatch": {1, 2},
	} {
		hostile["unsampled "+name] = slices.Clone(big)
		hostile["unsampled "+name][unsampled] = bad
	}
	hostile["unsampled NaN, sampled NaN"] = slices.Clone(hostile["unsampled NaN"])
	hostile["unsampled NaN, sampled NaN"][sampled] = points.Point{math.NaN(), 1, 1}
	for name, data := range hostile {
		want := "driver: " + data.Validate().Error()
		for _, scheme := range append(allSchemes(), partition.Random) {
			opts := Options{Scheme: scheme, SpillDir: t.TempDir()}
			goroutines := runtime.NumGoroutine()
			sky, stats, err := Compute(context.Background(), data, opts)
			if err == nil || err.Error() != want || sky != nil || stats != nil {
				t.Errorf("%s, %v: got (%v, %v, %v), want error %q", name, scheme, sky, stats, err, want)
			}
			assertNoLeak(t, opts.SpillDir, goroutines)
		}
	}
}

// fitRow is the first row of data from the given one on that
// partition.New's angular fit at the default eight partitions reads, when
// read is set, or does not read: the first where a NaN fails the fit, or
// leaves it unharmed.
func fitRow(t *testing.T, data points.Set, from int, read bool) int {
	t.Helper()
	for i := from; i < len(data); i++ {
		keep := data[i]
		data[i] = points.Point{math.NaN(), 0, 0}
		_, err := partition.New(partition.Angular, data, 8)
		data[i] = keep
		if (err != nil) == read {
			return i
		}
	}
	t.Fatalf("no row from %d on where the fit's reading is %v", from, read)
	return -1
}
