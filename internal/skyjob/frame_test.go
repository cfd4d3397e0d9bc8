package skyjob

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// TestSpecForFitsLikePartitionNew: the spec is partition.Fit's fit — its
// box is Min and Max, its angular cuts the cuts; sampled on a large input,
// exact on a small one — so a worker's rebuilt partitioner assigns every
// point as the in-process driver's does, for every scheme, and invalid
// input keeps this package's error prefix.
func TestSpecForFitsLikePartitionNew(t *testing.T) {
	for _, n := range []int{500, 20000} { // either side of New's fit sample
		data := uniformSet(int64(n), n, 5)
		for _, scheme := range []partition.Scheme{partition.Dimensional, partition.Grid, partition.Angular, partition.Random} {
			spec, err := SpecFor(data, scheme, 8)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := partition.Fit(scheme, data, 8)
			if err != nil {
				t.Fatal(err)
			}
			want, err := partition.New(scheme, data, 8)
			if err != nil {
				t.Fatal(err)
			}
			min, max := plan.Min, plan.Max
			if !points.Point(spec.Min).Equal(min) || !points.Point(spec.Max).Equal(max) {
				t.Errorf("n=%d %v: spec box [%v, %v], the fit's [%v, %v]", n, scheme, spec.Min, spec.Max, min, max)
			}
			got, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range data {
				g, _ := got.Assign(p)
				w, _ := want.Assign(p)
				if g != w {
					t.Fatalf("n=%d %v point %d: spec assigns partition %d, partition.New %d", n, scheme, i, g, w)
				}
			}
		}
	}
	bad := uniformSet(1, 10, 3)
	bad[4] = bad[4][:2]
	_, err := SpecFor(bad, partition.Angular, 4)
	if err == nil || !strings.HasPrefix(err.Error(), "skyjob: points: point 4 ") {
		t.Fatalf("mixed-dimension input: error %q, want the skyjob: points: point 4 … wording", err)
	}
}

// TestHostileInputErrorParity is driver's test of that name on a 2-worker
// cluster: a set 3× the fit's sample with a bad row the sample does not
// draw passes the master's fit for every scheme but MR-Grid's and fails the
// job when the master seals that row's split — not on the workers, so no
// task is retried. Either way, and when a second bad row the sample does
// draw fails the fit, the error is points.Set.Validate's, naming the lowest
// bad row, under this package's prefix.
func TestHostileInputErrorParity(t *testing.T) {
	master := startCluster(t, 2)
	clean := uniformSet(4, 3*4096, 3)
	fitReads := func(data points.Set, i int) bool {
		keep := data[i]
		defer func() { data[i] = keep }()
		data[i] = points.Point{math.NaN(), 0, 0}
		_, err := partition.New(partition.Angular, data, 8)
		return err != nil
	}
	unsampled := len(clean) / 3
	for fitReads(clean, unsampled) {
		unsampled++
	}
	sampled := unsampled + 1
	for !fitReads(clean, sampled) {
		sampled++
	}
	hostile := map[string]points.Set{}
	for name, bad := range map[string]points.Point{
		"NaN":                {1, math.NaN(), 2},
		"-Inf":               {1, 2, math.Inf(-1)},
		"dimension mismatch": {1, 2},
	} {
		hostile[name] = slices.Clone(clean)
		hostile[name][unsampled] = bad
	}
	hostile["and a sampled NaN"] = slices.Clone(hostile["NaN"])
	hostile["and a sampled NaN"][sampled] = points.Point{math.NaN(), 1, 1}
	for name, data := range hostile {
		want := "skyjob: " + data.Validate().Error()
		for _, scheme := range []partition.Scheme{partition.Dimensional, partition.Grid, partition.Angular, partition.Random} {
			res, err := Compute(context.Background(), master, data, scheme, 8, 2)
			if err == nil || err.Error() != want || res != nil {
				t.Errorf("%s, %v: got (%v, %v), want error %q", name, scheme, res, err, want)
			}
		}
	}
	if st := master.Status(); st.TaskRetries != 0 {
		t.Errorf("%d task retries: a bad row reached a worker", st.TaskRetries)
	}
}

// TestFramedMapSideMatchesBlockCombiner: a worker's map task of the
// partitioning job, walking its input frame into incremental windows, ships
// the bytes the staged block combiner shipped over the same points as
// records. (The merging job combines nothing: see TestExecutorsAgree.)
func TestFramedMapSideMatchesBlockCombiner(t *testing.T) {
	data := uniformSet(7, 3000, 4)
	for i := 0; i < 200; i++ {
		data = append(data, data[i].Clone())
	}
	spec, err := SpecFor(data, partition.Angular, 8)
	if err != nil {
		t.Fatal(err)
	}
	params, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The task's input as a worker receives it — one sealed frame — and as
	// the staged reference takes it, one record per point.
	frame, err := points.AppendFrameRows(nil, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	records := make([][]byte, len(data))
	for i, p := range data {
		records[i] = points.Encode(p)
	}
	job, err := newPartitionJob(params)
	if err != nil {
		t.Fatal(err)
	}
	if job.FrameJob.Accumulators == nil || job.FrameJob.Combiner != nil {
		t.Fatal("the BNL partitioning job does not fold map-side windows")
	}
	got, gotStats, err := mapreduce.MapFrames(job.FrameJob, 1, func(int) ([]byte, error) { return frame, nil }, 0, 3, spec.Codec)
	if err != nil {
		t.Fatal(err)
	}
	staged := func(_ int, blk *points.Block) (*points.Block, error) { return skyline.BlockBNL(blk), nil }
	var row points.Point
	want, wantStats, err := mapreduce.BuildFrames(records, 3, mapreduce.FrameMapperFunc(func(rec []byte, emit mapreduce.EmitPoint) error {
		if row, err = points.DecodeInto(row, rec); err != nil {
			return err
		}
		return job.FrameJob.Mapper(row, emit)
	}), staged, spec.Codec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("window streams differ from staged block-combiner streams")
	}
	gotStats.CombineNanos, wantStats.CombineNanos = 0, 0
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("stats %+v, staged %+v", gotStats, wantStats)
	}
}

// warmCluster is a master and two in-process workers on loopback, and run,
// which fits a spec to data and runs the whole pipeline on them — after one
// run that has warmed the accumulator pools, the gob type tables and the
// workers' reply buffers.
func warmCluster(tb testing.TB, data points.Set, splitSize int) (run func(ctx context.Context) *Result) {
	tb.Helper()
	master, err := rpcmr.NewMaster(rpcmr.MasterConfig{SplitSize: splitSize})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { master.Close() })
	for _, id := range []string{"a", "b"} {
		w, err := rpcmr.NewWorker(rpcmr.WorkerConfig{MasterAddr: master.Addr(), ID: id})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { w.Close() })
		go func() { _ = w.Run(context.Background()) }()
	}
	run = func(ctx context.Context) *Result {
		spec, err := SpecFor(data, partition.Angular, 8)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := ComputeSpec(ctx, master, data, spec, 2)
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
	run(context.Background())
	return run
}

// TestClusterMapAllocatesPerTaskNotPerPoint pins the record-free cluster
// path, in the spirit of driver.TestMapSideAllocatesNothingPerPoint: a whole
// cluster job — fit, both rpcmr jobs, master and two in-process workers —
// costs allocations per task, frame and result block, not per point, and
// bytes by what it computes, not by what it is sent.
//
// Counts, on 200 000 points in four splits: one record per point on the
// wire put this above 2. What is left, some 1 600–2 600 allocations a job
// whatever its size (0.008–0.013 per point here), is each task's spec
// decoded from JSON, its wire and net/rpc envelopes, and window growth after
// a GC has emptied the accumulator pools; the race detector, which drops
// pool puts at random, triples it — hence the driver test's bound of 0.05.
//
// Bytes, at the benchmark's shape (1 000 000 points in sixteen splits, a
// share of eight for each of the two workers): under 9 a point, well under
// the 48 of the point itself. With every split sealed, gob-encoded and
// gob-decoded into fresh memory the input alone cost 145 bytes a point (174
// in all); sealed into a job's recycled split buffers it cost 14.2–15.2 in
// all. The master holds no split now — each is framed from the input, a
// few hundred KiB at a time, through its connection's scratch as it is
// written — so the input costs the workers' split memory and little else,
// and the job reads 7.8–8.3: sealed map output, the reducers' blocks, window
// growth, one split's memory a task. At 200 000 points that rest is most of
// the bytes a point, which is why the bound is not asserted there.
func TestClusterMapAllocatesPerTaskNotPerPoint(t *testing.T) {
	measure := func(n, splitSize int) (mallocs, bytes float64) {
		run := warmCluster(t, uniformSet(42, n, 6), splitSize)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(context.Background())
		runtime.ReadMemStats(&after)
		mallocs = float64(after.Mallocs-before.Mallocs) / float64(n)
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		t.Logf("n = %d: %.4f mallocs/point, %.1f bytes/point", n, mallocs, bytes)
		return mallocs, bytes
	}
	if mallocs, _ := measure(200000, 50000); mallocs >= 0.05 {
		t.Fatalf("a cluster job allocated %.4f times per input point, want < 0.05", mallocs)
	}
	if raceEnabled || testing.Short() {
		return // the byte bound is for the uninstrumented build, and its run is the long one
	}
	if _, bytes := measure(1000000, 62500); bytes >= 9 {
		t.Fatalf("a cluster job allocated %.1f bytes per input point, want less than 9", bytes)
	}
}

// BenchmarkClusterJob is one whole cluster job — fit and both rpcmr jobs —
// on 200 000 6-dimensional points in four splits over two loopback workers:
// CI prints its ns/op and B/op beside the streamed job's, and, as that one
// does, the bytes a job shuffles (Job 1's), the bytes its map-only merge
// outputs and the partitioning job's map tasks — one per worker, each a
// share of two splits.
func BenchmarkClusterJob(b *testing.B) {
	run := warmCluster(b, uniformSet(42, 200000, 6), 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(context.Background())
	}
	b.StopTimer()
	tr := telemetry.NewTracer()
	res := run(telemetry.WithTracer(context.Background(), tr))
	b.ReportMetric(float64(res.Stats.Counters[mapreduce.CounterShuffleBytes]), "shuffle-B/job")
	b.ReportMetric(float64(res.Stats.Counters[mapreduce.CounterOutputBytes]), "output-B/job")
	b.ReportMetric(float64(len(partitionMapTasks(tr))), "map-tasks/job")
}

// BenchmarkSpecFor is the cluster pipeline's prologue on the benchmark's
// cluster input size: one validate-and-bounds pass plus the sampled fit.
func BenchmarkSpecFor(b *testing.B) {
	data := uniformSet(2012, 1000000, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SpecFor(data, partition.Angular, 8); err != nil {
			b.Fatal(err)
		}
	}
}
