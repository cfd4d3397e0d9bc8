package driver

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/qws"
	"repro/internal/skyline"
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

// computeShape is one of the in-process benchmark's batch shapes, run as it
// runs them: MR-Angle over 4 nodes' 8 partitions on 2 engine workers.
type computeShape struct {
	name string
	data points.Set
	// maxBytes bounds what one warm job allocates (see
	// TestComputeAllocatesWhatItReturns).
	maxBytes uint64
}

// computeShapes are qws_d10's QWS input — a 10 000-service base extended to
// 50 000 at d = 10, whose skyline is a sixth of it — and an independent
// d = 6 set of ind_d6's kind at a fifth of its size.
func computeShapes() []computeShape {
	return []computeShape{
		{"qws_d10", qws.Extend(qws.Generate(2012, 10000, 10), 2012, 50000), 11 << 20},
		{"ind_d6", dataset.Independent(2012, 200000, 6), 3 << 20},
	}
}

var shapeOpts = Options{Scheme: partition.Angular, Nodes: 4, Workers: 2}

// TestComputeAllocatesWhatItReturns pins what a warm in-process Compute
// allocates, the collector off while it runs so that every byte it asks for
// is counted and the accumulator pools stay warm. With every frame stream,
// reduce fold and result block sized once from counts the engine holds,
// Job 1's reduce output handed to the merge as the folds' blocks, each
// merge task's survivors returned as one block sized once and the result's
// sets views of its blocks, a job read 6.9–7.0 MB on the QWS shape (9.7 in
// one run of eight, the pools' warmth being bimodal there) and 2.7–2.8 MB on
// the independent one (2 vCPUs, Xeon). With the survivors staged, sealed
// and decoded it read 7.6–9.3 and 2.9–3.0; grown by doubling and copied at
// every hand-off, 20.1 and 5.8.
func TestComputeAllocatesWhatItReturns(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pool puts at random: the pools are not warm")
	}
	for _, s := range computeShapes() {
		if _, _, err := Compute(context.Background(), s.data, shapeOpts); err != nil { // warm the pools
			t.Fatal(err)
		}
		gc := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := Compute(context.Background(), s.data, shapeOpts)
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %.2f MB a job", s.name, float64(got)/(1<<20))
		if got > s.maxBytes {
			t.Errorf("%s: a warm job allocated %.2f MB, want at most %.0f", s.name, float64(got)/(1<<20), float64(s.maxBytes)/(1<<20))
		}
	}
}

// BenchmarkCompute is one whole in-process Compute — validation, fit and
// both jobs — on each of computeShapes: CI prints its B/op beside the
// streamed and cluster jobs'.
func BenchmarkCompute(b *testing.B) {
	for _, s := range computeShapes() {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Compute(context.Background(), s.data, shapeOpts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// keepsMerge is an executor that keeps the candidates its merge read.
type keepsMerge struct {
	Executor
	inputs [][]*points.Block
}

func (k *keepsMerge) Merge(ctx context.Context, inputs [][]*points.Block) (*mapreduce.FrameResult, error) {
	k.inputs = inputs
	return k.Executor.Merge(ctx, inputs)
}

// overwrite writes -1 over every coordinate of rows.
func overwrite(rows points.Set) {
	for _, p := range rows {
		for i := range p {
			p[i] = -1
		}
	}
}

// TestResultSetsOwnTheirRows: a job's global skyline and local skylines are
// views of blocks its result owns, and nothing else holds those blocks —
// not the input, not a pool, not the next job. Writing over every row of
// one job's result leaves the next job's result, its oracle check and the
// input intact, and no row of one result shares memory with the other's.
// Within a job, the global skyline is the merge tasks' own blocks: writing
// over Job 1's blocks and over the sorted candidates the merge read — the
// levels, the groups and the rows streamed past them — leaves it as it was,
// so it keeps none of them alive.
func TestResultSetsOwnTheirRows(t *testing.T) {
	data := uniformSet(8, 20000, 4)
	input := data.Clone()
	rows := func(global points.Set, stats *Stats) []points.Point {
		all := slices.Clone(global)
		for _, ls := range stats.LocalSkylines {
			all = append(all, ls...)
		}
		return all
	}
	global1, stats1, err := Compute(context.Background(), data, shapeOpts)
	if err != nil {
		t.Fatal(err)
	}
	global2, stats2, err := Compute(context.Background(), data, shapeOpts)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[*float64]bool)
	for _, p := range rows(global2, stats2) {
		seen[&p[0]] = true
	}
	kept := make(map[int]points.Set)
	for id, ls := range stats2.LocalSkylines {
		kept[id] = ls.Clone()
	}
	keptGlobal := global2.Clone()
	for _, p := range rows(global1, stats1) {
		if seen[&p[0]] {
			t.Fatal("a row of one job's result lies in the other's memory")
		}
	}
	overwrite(rows(global1, stats1))
	if !reflect.DeepEqual(global2, keptGlobal) || !reflect.DeepEqual(input, data) {
		t.Fatal("writing into one job's result changed the next job's result or the input")
	}
	for id, ls := range stats2.LocalSkylines {
		if !reflect.DeepEqual(ls, kept[id]) {
			t.Fatalf("writing into one job's result changed partition %d of the next job's", id)
		}
	}
	checkAgainstOracle(t, data, shapeOpts, 0, true, global2, stats2)

	// Rows on the plane of coordinate sum 1 dominate none of each other, so
	// every candidate survives its merge task, which must still copy it.
	data, opts := uniformSet(9, 3000, 4), shapeOpts.withDefaults()
	for _, p := range data {
		sum := p[0] + p[1] + p[2] + p[3]
		for i := range p {
			p[i] /= sum
		}
	}
	part, err := partition.New(opts.Scheme, data, opts.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	exec := &keepsMerge{Executor: InProcess(mapreduce.SetRows(data), PartitionJob(part, nil, 4, 0, opts), 4, 0, opts)}
	global3, stats3, err := TwoJobs(context.Background(), exec, 4, part, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(exec.inputs) < 2 {
		t.Fatalf("the merge ran %d tasks; want several, each with a block of its own", len(exec.inputs))
	}
	checkAgainstOracle(t, data, opts, 0, true, global3, stats3)
	if len(global3) != len(data) {
		t.Fatalf("%d of %d rows on the plane survived", len(global3), len(data))
	}
	keptGlobal = global3.Clone()
	for _, ls := range stats3.LocalSkylines {
		overwrite(ls)
	}
	for _, in := range exec.inputs {
		for _, blk := range in {
			overwrite(blk.Rows())
		}
	}
	if !reflect.DeepEqual(global3, keptGlobal) {
		t.Fatal("writing over Job 1's blocks or the merge's candidates changed the global skyline")
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

// BenchmarkRouteFold is one map task's per-row work, job-shaped: the
// corr_d6 (2 M rows) and ind_d6 (1 M rows) inputs of the benchmark harness
// at seed 2012, in input order on one goroutine, each row through the
// fitted MR-Angle partitioner's Assign (8 partitions, the harness's 2 ×
// 4 nodes) and into its partition's skyline.Window, as Job 1's mapper and
// map-side combiner take it. The isolated loops do not see this:
// partition's BenchmarkAssign cycles 1 024 cache-resident rows, and the
// harness's traced assign probe is a bare loop with no window beside it.
func BenchmarkRouteFold(b *testing.B) {
	for _, in := range []struct {
		name string
		gen  func() points.Set
	}{
		{"corr6", func() points.Set { return dataset.Correlated(2012, 2000000, 6) }},
		{"ind6", func() points.Set { return dataset.Independent(2012, 1000000, 6) }},
	} {
		data := in.gen()
		part, err := partition.New(partition.Angular, data, 8)
		if err != nil {
			b.Fatal(err)
		}
		windows := make([]*skyline.Window, part.Partitions())
		for i := range windows {
			windows[i] = skyline.NewWindow()
		}
		b.Run(in.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, w := range windows {
					w.Reset()
				}
				for _, row := range data {
					id, err := part.Assign(row)
					if err != nil {
						b.Fatal(err)
					}
					windows[id].Add(row)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(data)), "ns/row")
		})
	}
}
