package skyjob

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/driver"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// TestOptionSurface pins the number of independently settable values that
// travel to workers. A new field has to edit this count, and the
// simplicity guide's rule for one applies: two callers or workloads that
// exist today (tests and examples do not count) need different values,
// and the code cannot work the value out from its inputs or a measurement
// it already takes.
func TestOptionSurface(t *testing.T) {
	// The plan is one embedded field whose own fields travel flattened.
	if n := reflect.TypeOf(partition.Plan{}).NumField() + reflect.TypeOf(Spec{}).NumField() - 1; n != 8 {
		t.Fatalf("skyjob.Spec has %d settable values, want 8", n)
	}
}

// membersOf groups data by the partition part assigns it to.
func membersOf(t *testing.T, part partition.Partitioner, data points.Set) map[int]points.Set {
	t.Helper()
	members := make(map[int]points.Set)
	for _, p := range data {
		id, err := part.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		members[id] = append(members[id], p)
	}
	return members
}

// requireOracle checks one cluster run against the sequential operator:
// the global result is exactly oracle over the whole input, and each
// partition's local result exactly oracle over the points the spec's
// partitioner assigns to it.
func requireOracle(t *testing.T, res *Result, spec Spec, data points.Set, oracle func(points.Set) points.Set) {
	t.Helper()
	if want := oracle(data); !sameMultiset(res.Skyline, want) {
		t.Errorf("global result has %d points, oracle %d", len(res.Skyline), len(want))
	}
	part, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	members := membersOf(t, part, data)
	if len(res.LocalSkylines) != len(members) {
		t.Errorf("%d local results for %d occupied partitions", len(res.LocalSkylines), len(members))
	}
	for id, m := range members {
		if want := oracle(m); !sameMultiset(res.LocalSkylines[id], want) {
			t.Errorf("partition %d: local result %d points, oracle %d",
				id, len(res.LocalSkylines[id]), len(want))
		}
	}
}

// kernelJobs is the cluster's form of the seam (see driver/frame.go,
// "Ablations are job edits"): a job is a value and a name in the registry a
// factory of one, so Job 1 under an ablation row's kernel is the registered
// partitioning job with its value edited, under a name only this test
// binary registers. No spec field selects it — "BNL" is the product's job.
var kernelJobs = map[string]string{"BNL": PartitionJobName, "SFS": "test/partition-sfs", "D&C": "test/partition-dc"}

func init() {
	for name, f := range map[string]skyline.Func{"SFS": skyline.SFS, "D&C": skyline.DivideConquer} {
		edit := driver.WithKernel(f)
		rpcmr.RegisterJob(kernelJobs[name], func(params []byte) (rpcmr.Job, error) {
			job, err := newPartitionJob(params)
			if err != nil {
				return job, err
			}
			edit(&job.FrameJob)
			return job, nil
		})
	}
}

// editJobs are the partitioning job under the edits that ship frames that
// are no skyline: no combiner (staged rows), and a combiner that ships each
// sealed window with a copy of every row one unit worse in every coordinate
// — rows the window's own dominate, so no local skyline changes.
var editJobs = map[string]string{"no combiner": "test/partition-no-combiner", "dominated copies": "test/partition-dominated-copies"}

func init() {
	for name, edit := range map[string]func(*mapreduce.FrameJob){
		"no combiner": func(job *mapreduce.FrameJob) { job.Accumulators, job.Combiner = nil, nil },
		"dominated copies": func(job *mapreduce.FrameJob) {
			job.Combiner = func(_ int, blk *points.Block) (*points.Block, error) {
				out := blk.Clone()
				for i := 0; i < blk.Len(); i++ {
					worse := append([]float64(nil), blk.Row(i)...)
					for k := range worse {
						worse[k]++
					}
					out.AppendRow(worse)
				}
				return out, nil
			}
		},
	} {
		rpcmr.RegisterJob(editJobs[name], func(params []byte) (rpcmr.Job, error) {
			job, err := newPartitionJob(params)
			if err != nil {
				return job, err
			}
			edit(&job.FrameJob)
			return job, nil
		})
	}
}

// TestEditedJobsKeepExactLocalSkylines is driver's test of the same name on
// a two-worker cluster: the workers' reduce tasks take a frame in as a
// skyline only for the partitioning job as it is, never for an edit whose
// frames are not skylines (no combiner, a combiner over the seal) or whose
// reduce is another fold (WithKernel), and every run gives each partition
// exactly BNL of the rows routed to it — unbudgeted, and under a 16-row
// budget that sends the folds round several passes.
func TestEditedJobsKeepExactLocalSkylines(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // where the workers' folds overflow
	master := startCluster(t, 2)
	data := dataset.Generate(dataset.KindAnticorrelated, 64, 3000, 4)
	spec, err := SpecFor(data, partition.Angular, 8)
	if err != nil {
		t.Fatal(err)
	}
	jobs := map[string]string{"as is": PartitionJobName, "SFS kernel": kernelJobs["SFS"]}
	for name, job := range editJobs {
		jobs[name] = job
	}
	for name, job := range jobs {
		for _, budget := range []int64{0, 16 * 4 * 8} {
			spec.ReducerBudgetBytes = budget
			res, err := compute(context.Background(), master, data, spec, spec, job, MergeJobName, 2)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/budget %d", name, budget), func(t *testing.T) { requireOracle(t, res, spec, data, skyline.BNL) })
			if budget > 0 && name != "SFS kernel" && res.Stats.MergePasses < 2 {
				t.Errorf("%s: the budgeted folds resolved in %d pass(es)", name, res.Stats.MergePasses)
			}
		}
	}
	if left, _ := os.ReadDir(tmp); len(left) > 0 {
		t.Errorf("%d files left in TMPDIR", len(left))
	}
}

// TestClusterMatchesOracle is driver.TestComputeMatchesOracle's cluster
// twin: on a 3-worker loopback cluster, every scheme × kernel × spec
// variant returns exactly the classic sequential skyline.BNL of the whole
// input, and each partition's local skyline is exactly skyline.BNL of the
// points the spec's partitioner assigns to it — and every scheme × k ×
// spec variant of the band jobs the same of skyline.Skyband(·, k). The BNL
// rows are the product's job; the SFS and D&C rows are kernelJobs' edits.
// Where the budget rows' local skylines exceed the budget, the merge runs
// as one round on the workers — one skyline/merge job, a map task per
// budget-sized group — and leaves no overflow file behind.
func TestClusterMatchesOracle(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // where the workers' folds overflow
	master := startCluster(t, 3)
	uniform := uniformSet(42, 600, 4)
	dups := append(uniformSet(43, 600, 3), uniformSet(43, 60, 3)...)
	variants := []struct {
		name       string
		data       points.Set
		partitions int
		set        func(*Spec)
		band       bool // the band jobs take it too
	}{
		{"default", uniform, 8, func(*Spec) {}, true},
		{"budget 4 KiB", uniform, 8, func(s *Spec) { s.ReducerBudgetBytes, s.Codec = 4<<10, points.FrameAuto }, false},
		{"FrameAuto", uniform, 8, func(s *Spec) { s.Codec = points.FrameAuto }, true},
		{"one partition", uniform, 1, func(*Spec) {}, true},
		{"duplicates", dups, 8, func(*Spec) {}, true},
	}
	schemes := []partition.Scheme{partition.Dimensional, partition.Grid, partition.Angular, partition.Random}
	kernels := []string{"BNL", "SFS", "D&C"}
	for _, scheme := range schemes {
		for _, v := range variants {
			spec, err := SpecFor(v.data, scheme, v.partitions)
			if err != nil {
				t.Fatal(err)
			}
			v.set(&spec)
			for _, kernel := range kernels {
				t.Run(fmt.Sprintf("%v/%v/%s", scheme, kernel, v.name), func(t *testing.T) {
					tr := telemetry.NewTracer()
					res, err := compute(telemetry.WithTracer(context.Background(), tr), master, v.data, spec, spec, kernelJobs[kernel], MergeJobName, 3)
					if err != nil {
						t.Fatal(err)
					}
					requireOracle(t, res, spec, v.data, skyline.BNL)
					requireRounds(t, tr, res.Stats, spec)
					if left, _ := os.ReadDir(tmp); len(left) > 0 {
						t.Errorf("%d files left in TMPDIR", len(left))
					}
				})
			}
			for _, k := range []int{1, 3} {
				if !v.band {
					continue
				}
				t.Run(fmt.Sprintf("%v/%d-skyband/%s", scheme, k, v.name), func(t *testing.T) {
					res, err := compute(context.Background(), master, v.data, spec, skybandSpec{Spec: spec, K: k},
						SkybandPartitionJobName, SkybandMergeJobName, 3)
					if err != nil {
						t.Fatal(err)
					}
					requireOracle(t, res, spec, v.data, func(s points.Set) points.Set { return oracleBand(t, s, k) })
				})
			}
		}
	}
}

// requireRounds checks that a run's merge round was booked exactly when its
// local skylines exceeded spec's budget, around one skyline/merge job on the
// workers whose map tasks are the round's groups.
func requireRounds(t *testing.T, tr *telemetry.Tracer, st *driver.Stats, spec Spec) {
	t.Helper()
	size := int64(st.LocalSkylineTotal() * len(spec.Min) * 8)
	if over := spec.ReducerBudgetBytes > 0 && size > spec.ReducerBudgetBytes; over != (st.MergeRounds == 1) || over != (st.MergeGroups >= 2) || st.MergeRounds > 1 {
		t.Errorf("%d candidate bytes under a %d-byte budget ran %d rounds of %d groups", size, spec.ReducerBudgetBytes, st.MergeRounds, st.MergeGroups)
	}
	spans := tr.Spans()
	byID := make(map[uint64]telemetry.SpanData, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	jobs, groups, tasks := 0, int64(0), map[uint64]int{}
	for _, s := range spans {
		switch s.Name {
		case "rpcmr-job:" + MergeJobName:
			for up, ok := byID[s.Parent]; ok; up, ok = byID[up.Parent] {
				if up.Name == "merge-round" {
					jobs++
					break
				}
			}
		case "merge-round":
			for _, a := range s.Attrs {
				if a.Key == "groups" {
					groups += int64(a.Value.(int))
				}
			}
		case "map-task":
			for up, ok := byID[s.Parent]; ok; up, ok = byID[up.Parent] {
				if up.Name == "merge-round" {
					tasks[up.ID]++
					break
				}
			}
		}
	}
	n := 0
	for _, c := range tasks {
		n += c
	}
	if jobs != st.MergeRounds || int64(n) != groups || groups != int64(st.MergeGroups) {
		t.Errorf("%d merge rounds ran as %d %s jobs of %d worker map tasks, for %d groups", st.MergeRounds, jobs, MergeJobName, n, groups)
	}
}

// TestExecutorsAgree: Algorithm 1 is written once (driver.PartitionJob,
// driver.MergeJob, driver.TwoJobs), so for one dataset and one fitted spec
// the in-process executor and a 3-worker cluster must return the same
// global skyline, the same local skyline per partition id and the same
// record of the run — partition counts, counters, Eq. (5) evidence, flight
// report — for the skyline, for a band (k = 3), and under a reducer budget,
// where both merge in one round of budget-sized groups; over a candidate set
// small enough to be one merge task and over one cut into a task per worker.
// The merging job is also run alone on both, over MergeInput's groups: it
// maps every candidate once, in its group, combines nothing and shuffles
// exactly the global result, in the run's order. Job 1's shuffle bytes
// depend on where the splits fall, which the executors choose: only their
// presence is compared.
func TestExecutorsAgree(t *testing.T) {
	master := startCluster(t, 3)
	small := uniformSet(77, 1200, 5)
	for i := 0; i < 100; i++ {
		small = append(small, small[i].Clone())
	}
	// Enough candidates — a few thousand local-skyline rows — for the merging
	// job to be cut into one task per worker; small's few hundred are one.
	wide := uniformSet(78, 5000, 9)
	rows := []struct {
		data       points.Set
		k          int
		budget     int64
		mergeTasks int // 0: the merge is not a job
	}{{small, 0, 0, 1}, {small, 3, 0, 1}, {small, 0, 4 << 10, 0}, {wide, 0, 0, 3}, {wide, 3, 0, 3}}
	for _, scheme := range []partition.Scheme{partition.Angular, partition.Grid} {
		for _, row := range rows {
			data, n := row.data, int64(len(row.data))
			name := fmt.Sprintf("%v, %d points, k=%d, budget=%d", scheme, n, row.k, row.budget)
			spec, err := SpecFor(data, scheme, 8)
			if err != nil {
				t.Fatal(err)
			}
			if row.budget > 0 {
				spec.ReducerBudgetBytes, spec.Codec = row.budget, points.FrameAuto
			}
			part, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			// The cluster's partitioning job does not prune grid cells, so
			// the in-process run must not either for local skylines to be
			// comparable partition by partition: it is the same job value on
			// the in-process executor, handed no mask.
			opts := driver.Options{Scheme: scheme, ReducerBudgetBytes: spec.ReducerBudgetBytes, Codec: spec.Codec, Workers: 3}
			inRec, clRec := telemetry.NewRecorder(name), telemetry.NewRecorder(name)
			inTr, clTr := telemetry.NewTracer(), telemetry.NewTracer()
			inCtx := telemetry.WithTracer(telemetry.WithRecorder(context.Background(), inRec), inTr)
			clCtx := telemetry.WithTracer(telemetry.WithRecorder(context.Background(), clRec), clTr)
			inProcess := driver.InProcess(mapreduce.SetRows(data), driver.PartitionJob(part, nil, len(spec.Min), row.k, opts), len(spec.Min), row.k, opts)
			sky, stats, err := driver.TwoJobs(inCtx, inProcess, len(spec.Min), part, nil, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			var res *Result
			if row.k == 0 {
				res, err = ComputeSpec(clCtx, master, data, spec, 3)
			} else {
				res, err = compute(clCtx, master, data, spec, skybandSpec{Spec: spec, K: row.k},
					SkybandPartitionJobName, SkybandMergeJobName, 3)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !sameMultiset(sky, res.Skyline) {
				t.Errorf("%s: in-process result %d points, cluster %d", name, len(sky), len(res.Skyline))
			}
			if len(stats.LocalSkylines) != len(res.LocalSkylines) {
				t.Errorf("%s: %d local results in-process, %d on the cluster",
					name, len(stats.LocalSkylines), len(res.LocalSkylines))
			}
			for id, local := range stats.LocalSkylines {
				if !sameMultiset(local, res.LocalSkylines[id]) {
					t.Errorf("%s: partition %d local results differ", name, id)
				}
			}
			if in, cl := metrics.GlobalSurvivors(stats.LocalSkylines, sky), metrics.GlobalSurvivors(res.LocalSkylines, res.Skyline); !reflect.DeepEqual(in, cl) {
				t.Errorf("%s: Eq. (5) survivors differ: %v vs %v", name, in, cl)
			}
			// The ratio sums floats in map order; the survivor counts above
			// are the exact form.
			in := metrics.LocalSkylineOptimality(stats.LocalSkylines, sky)
			if cl := res.Optimality(); math.Abs(in-cl) > 1e-12 || cl <= 0 {
				t.Errorf("%s: optimality %v in-process, %v on the cluster", name, in, cl)
			}

			// The whole record, not just the skyline.
			cl := res.Stats
			if stats.Partitions != cl.Partitions || !reflect.DeepEqual(stats.PartitionCounts, cl.PartitionCounts) {
				t.Errorf("%s: partitions %d %v in-process, %d %v on the cluster",
					name, stats.Partitions, stats.PartitionCounts, cl.Partitions, cl.PartitionCounts)
			}
			routed := 0
			for _, c := range cl.PartitionCounts {
				routed += c
			}
			if int64(routed) != n {
				t.Errorf("%s: cluster partition counts sum to %d, input has %d rows", name, routed, n)
			}
			// Stragglers are timing, not data: a blocked round of four or more
			// tasks may flag one on a busy machine.
			names := func(counters map[string]int64) []string {
				var out []string
				for key := range counters {
					if key != mapreduce.CounterStragglers {
						out = append(out, key)
					}
				}
				sort.Strings(out)
				return out
			}
			if in, cl := names(stats.Counters), names(cl.Counters); !reflect.DeepEqual(in, cl) {
				t.Errorf("%s: counter names %v in-process, %v on the cluster", name, in, cl)
			}
			for _, st := range []*driver.Stats{stats, cl} {
				if st.Counters[mapreduce.CounterShuffleBytes] <= 0 {
					t.Errorf("%s: counters %v; want shuffle bytes booked", name, st.Counters)
				}
				if budgeted := row.budget > 0; budgeted != (st.MergeRounds >= 1) || st.ReducerPeakBytes <= 0 ||
					len(st.MergeRoundBytes) != st.MergeRounds {
					t.Errorf("%s: MergeRounds %d, MergeRoundBytes %v, ReducerPeakBytes %d", name, st.MergeRounds, st.MergeRoundBytes, st.ReducerPeakBytes)
				}
			}
			// Job 1 maps the input once on either executor; the merge maps
			// every local skyline row once, in its group — as many groups as
			// MergeTasks asks, or as the budget needs — and lets through,
			// uncombined, the global result alone: its output is the result.
			merged, kept := int64(stats.LocalSkylineTotal()), int64(len(sky))
			if got := driver.MergeTasks(3, int(merged)); row.budget == 0 && got != row.mergeTasks {
				t.Fatalf("%s: %d candidates are %d merge tasks, the row wants %d", name, merged, got, row.mergeTasks)
			}
			if row.budget > 0 {
				merged = 0
				for i, b := range stats.MergeRoundBytes {
					merged += b / int64(len(spec.Min)*8)
					if i > 0 {
						kept += b / int64(len(spec.Min)*8)
					}
				}
			}
			for _, st := range []*driver.Stats{stats, cl} {
				if in, out, combined := st.Counters[mapreduce.CounterMapIn], st.Counters[mapreduce.CounterMapOut], st.Counters[mapreduce.CounterCombineIn]; in != n+merged || out != n+kept || combined != n {
					t.Errorf("%s: mr.map.records.in %d, .out %d, mr.combine.records.in %d; want %d + %d, %d + %d and %d",
						name, in, out, combined, n, merged, n, kept, n)
				}
			}
			if stats.MergeRounds != cl.MergeRounds || stats.MergeGroups != cl.MergeGroups || !reflect.DeepEqual(stats.MergeRoundBytes, cl.MergeRoundBytes) {
				t.Errorf("%s: merge rounds %d of %d groups %v in-process, %d of %d %v on the cluster",
					name, stats.MergeRounds, stats.MergeGroups, stats.MergeRoundBytes, cl.MergeRounds, cl.MergeGroups, cl.MergeRoundBytes)
			}
			// The last job either trace records is the merging job.
			for _, tr := range []*telemetry.Tracer{inTr, clTr} {
				if tasks := lastJobMapTasks(tr.Spans()); row.mergeTasks > 0 && tasks != row.mergeTasks {
					t.Errorf("%s: the merging job ran %d map tasks, want %d", name, tasks, row.mergeTasks)
				}
			}
			inRep, clRep := inRec.Report(), clRec.Report()
			if len(inRep.Partitions) != stats.Partitions || len(clRep.Partitions) != stats.Partitions {
				t.Fatalf("%s: reports cover %d and %d of %d partitions", name, len(inRep.Partitions), len(clRep.Partitions), stats.Partitions)
			}
			for id, p := range inRep.Partitions {
				q := clRep.Partitions[id]
				if p.InputRecords != q.InputRecords || p.LocalSkyline != q.LocalSkyline || p.GlobalSurvivors != q.GlobalSurvivors {
					t.Errorf("%s: partition %d reported as %+v in-process, %+v on the cluster", name, id, p, q)
				}
				if (p.ShuffleBytes > 0) != (q.ShuffleBytes > 0) {
					t.Errorf("%s: partition %d shuffle bytes %d in-process, %d on the cluster", name, id, p.ShuffleBytes, q.ShuffleBytes)
				}
			}
			if inRep.GlobalSkyline != clRep.GlobalSkyline || inRep.MergeRounds != clRep.MergeRounds ||
				(inRep.ReducerPeakBytes > 0) != (clRep.ReducerPeakBytes > 0) {
				t.Errorf("%s: report skyline %d, rounds %d, peak %d in-process; %d, %d, %d on the cluster", name,
					inRep.GlobalSkyline, inRep.MergeRounds, inRep.ReducerPeakBytes, clRep.GlobalSkyline, clRep.MergeRounds, clRep.ReducerPeakBytes)
			}
			if row.budget == 0 {
				// The merging job by itself, over this run's local skylines.
				var candidates []*points.Block
				for id := 0; id < stats.Partitions; id++ {
					if blk, ok := points.BlockOf(stats.LocalSkylines[id]); ok && blk.Len() > 0 {
						candidates = append(candidates, blk)
					}
				}
				inputs, err := driver.MergeInput(candidates, len(spec.Min), row.mergeTasks, 0)
				if err != nil || len(inputs) != row.mergeTasks {
					t.Fatalf("%s: %d merge inputs, err %v", name, len(inputs), err)
				}
				job := driver.MergeJob(len(spec.Min), row.k)
				job.Feed = mapreduce.WholeInput(inputs)
				in2, err := mapreduce.RunFrames(context.Background(), mapreduce.Config{Workers: 3, Codec: spec.Codec}, job)
				if err != nil {
					t.Fatal(err)
				}
				params, job2 := mustJSON(t, spec), MergeJobName
				if row.k > 0 {
					params, job2 = mustJSON(t, skybandSpec{Spec: spec, K: row.k}), SkybandMergeJobName
				}
				cl2, err := cluster{master: master, job2: job2, params: params, reducers: 3, codec: spec.Codec}.Merge(context.Background(), inputs)
				if err != nil {
					t.Fatal(err)
				}
				// Map-only: the survivors are the output, booked as such on
				// both executors, the same bytes; nothing crosses a shuffle.
				inC := in2.Counters.Snapshot()
				for _, res2 := range []*mapreduce.FrameResult{in2, cl2} {
					var got points.Set // the tasks' blocks in task order
					for task := range inputs {
						if blk := res2.Blocks[task]; blk != nil {
							got = append(got, blk.ToSet()...)
						}
					}
					if !reflect.DeepEqual(got, sky) {
						t.Errorf("%s: the merging job alone kept %d rows, the run %d", name, len(got), len(sky))
					}
					if c := res2.Counters.Snapshot(); c[mapreduce.CounterShuffle] != 0 || c[mapreduce.CounterShuffleBytes] != 0 ||
						c[mapreduce.CounterMapIn] != merged || c[mapreduce.CounterMapOut] != kept || c[mapreduce.CounterCombineIn] != 0 ||
						c[mapreduce.CounterReduceOut] != 0 || c[mapreduce.CounterOutputBytes] <= 0 || c[mapreduce.CounterOutputBytes] != inC[mapreduce.CounterOutputBytes] {
						t.Errorf("%s: merging job counters %v; want %d rows in, %d out as %d output bytes, nothing shuffled, combined or reduced",
							name, c, merged, kept, inC[mapreduce.CounterOutputBytes])
					}
				}
			}
		}
	}
}

// lastJobMapTasks reads a trace's last-ended job span — "mr-job:…" in
// process, "rpcmr-job:…" on a cluster — and returns the "tasks" attribute
// of its map span (0 when there is none).
func lastJobMapTasks(spans []telemetry.SpanData) int {
	var job uint64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "mr-job:") || strings.HasPrefix(s.Name, "rpcmr-job:") {
			job = s.ID
		}
	}
	for _, s := range spans {
		if s.Name != "map" || s.Parent != job {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "tasks" {
				n, _ := a.Value.(int)
				return n
			}
		}
	}
	return 0
}

// allJobs is the four registered jobs; the band jobs' params carry a k.
var allJobs = []struct {
	name    string
	factory rpcmr.JobFactory
	band    bool
}{
	{PartitionJobName, newPartitionJob, false},
	{MergeJobName, newMergeJob, false},
	{SkybandPartitionJobName, newSkybandPartitionJob, true},
	{SkybandMergeJobName, newSkybandMergeJob, true},
}

// wholeInput says whether a job's tasks each take a whole input
// (rpcmr.WholeFrames) rather than a share of the rows.
func wholeInput(job string) bool {
	return job == MergeJobName || job == SkybandMergeJobName
}

// TestHostileSpecRejected: job params arrive over the wire, so a spec no
// SpecFor could have produced must come back as a skyjob error from all
// four job factories — which is what a worker reports as a failed task —
// rather than switch on a hostile enum member or size a table from a hostile
// count; a spec that still names a kernel — a knob this build retired, one
// of whose values was the O(n²) oracle — is refused as an unknown field. A
// cluster handed every such spec still runs the next good jobs, skyline and
// band, on all of its workers.
func TestHostileSpecRejected(t *testing.T) {
	data := uniformSet(5, 300, 3)
	good, err := SpecFor(data, partition.Angular, 8)
	if err != nil {
		t.Fatal(err)
	}
	type mutation func(m map[string]any)
	hostile := map[string]mutation{
		"retired kernel":          func(m map[string]any) { m["kernel"] = 0 },
		"retired naive kernel":    func(m map[string]any) { m["kernel"] = 3 }, // once the O(n²) oracle, on every worker
		"unknown scheme":          func(m map[string]any) { m["scheme"] = "MR-Bogus" },
		"unknown codec":           func(m map[string]any) { m["codec"] = 9 },
		"zero dimension":          func(m map[string]any) { m["dim"] = 0 }, // dim is the box's: an unknown field
		"angular without cuts":    func(m map[string]any) { delete(m, "angular_cuts") },
		"angular without splits":  func(m map[string]any) { delete(m, "angular_splits") },
		"zero partitions":         func(m map[string]any) { m["partitions"] = 0 },
		"negative partitions":     func(m map[string]any) { m["partitions"] = -4 },
		"2^40 partitions":         func(m map[string]any) { m["partitions"] = 1 << 40 },
		"negative budget":         func(m map[string]any) { m["reducer_budget_bytes"] = -1 },
		"split product 2^62":      func(m map[string]any) { m["angular_splits"] = []int{1 << 31, 1 << 31}; delete(m, "angular_cuts") },
		"zero split":              func(m map[string]any) { m["angular_splits"] = []int{0, 8}; delete(m, "angular_cuts") },
		"short min":               func(m map[string]any) { m["min"] = []float64{0, 0} },
		"long max":                func(m map[string]any) { m["max"] = []float64{1, 1, 1, 1} },
		"min above max":           func(m map[string]any) { m["min"] = []float64{0, 2, 0}; m["max"] = []float64{1, 1, 1} },
		"retired classic_kernel":  func(m map[string]any) { m["classic_kernel"] = true },
		"retired classic_shuffle": func(m map[string]any) { m["classic_shuffle"] = true },
		"misspelt field":          func(m map[string]any) { m["kernal"] = 1 },
	}
	// What only one kind of job must refuse: a skyline job has no k, and a
	// band job needs one, a whole spec around it, and no reducer budget —
	// the budgeted fold is a skyline fold.
	skylineOnly := map[string]mutation{
		"band width on a skyline job": func(m map[string]any) { m["k"] = 2 },
	}
	bandOnly := map[string]mutation{
		"zero k":     func(m map[string]any) { m["k"] = 0 },
		"negative k": func(m map[string]any) { m["k"] = -3 },
		"no k":       func(m map[string]any) { delete(m, "k") },
		"nothing but k": func(m map[string]any) {
			for key := range m {
				if key != "k" {
					delete(m, key)
				}
			}
		},
		"reducer budget": func(m map[string]any) { m["reducer_budget_bytes"] = 4096 },
	}
	master := startCluster(t, 3)
	for _, job := range allJobs {
		rows := []map[string]mutation{hostile, skylineOnly}
		if job.band {
			rows[1] = bandOnly
		}
		for _, row := range rows {
			for name, mutate := range row {
				var m map[string]any
				if err := json.Unmarshal(mustJSON(t, good), &m); err != nil {
					t.Fatal(err)
				}
				if job.band {
					m["k"] = 2
				}
				mutate(m)
				params := mustJSON(t, m)
				if _, err := job.factory(params); err == nil || !strings.HasPrefix(err.Error(), "skyjob: ") {
					t.Errorf("%s, %s: factory returned %v, want a skyjob error", name, job.name, err)
				}
				_, err := master.Run(context.Background(), rpcmr.JobSpec{Name: job.name, Params: params, Reducers: 2}, setSplits(data))
				if err == nil || !strings.Contains(err.Error(), "skyjob: ") {
					t.Errorf("%s, %s: cluster run returned %v, want a skyjob error", name, job.name, err)
				}
			}
		}
	}
	// An infinite bound cannot be written in JSON at all; the decoder
	// refuses the overflowing literal.
	overflow := strings.Replace(string(mustJSON(t, good)), `"min":[`, `"min":[1e999,`, 1)
	if _, err := newPartitionJob([]byte(overflow)); err == nil || !strings.HasPrefix(err.Error(), "skyjob: ") {
		t.Errorf("overflowing bound: %v, want a skyjob error", err)
	}

	res, err := ComputeSpec(context.Background(), master, data, good, 3)
	if err != nil {
		t.Fatalf("good spec after the hostile ones: %v", err)
	}
	if !sameMultiset(res.Skyline, skyline.BNL(data)) {
		t.Error("good spec after the hostile ones: wrong skyline")
	}
	band, err := ComputeSkyband(context.Background(), master, data, partition.Angular, 2, 8, 3)
	if err != nil {
		t.Fatalf("good band job after the hostile ones: %v", err)
	}
	if !sameMultiset(band, oracleBand(t, data, 2)) {
		t.Error("good band job after the hostile ones: wrong 2-skyband")
	}
	if st := master.Status(); st.LiveWorkers != 3 {
		t.Errorf("%d of 3 workers alive after the hostile specs", st.LiveWorkers)
	}
}

// oracleBand is the sequential k-skyband.
func oracleBand(t *testing.T, data points.Set, k int) points.Set {
	t.Helper()
	band, err := skyline.Skyband(data, k)
	if err != nil {
		t.Fatal(err)
	}
	return band
}

// TestHostileInputFrameRejected: a map task's input frame arrives over RPC,
// so a frame no master could have sealed — or one for another job — must
// come back from all four jobs as an error that says what is wrong with it,
// never a worker that died in a decoder, a partitioner, a window or a
// filter's layout — nor, from a band merge, a band that kept every row of
// another dimension because nothing dominates across dimensions. For the
// merging jobs the frame is the candidate set: empty, truncated, of mixed
// dimension, or not of the spec's. The cluster then runs a good job on all
// of its workers.
func TestHostileInputFrameRejected(t *testing.T) {
	data := uniformSet(6, 300, 3)
	spec, err := SpecFor(data, partition.Angular, 8)
	if err != nil {
		t.Fatal(err)
	}
	params := map[bool][]byte{false: mustJSON(t, spec), true: mustJSON(t, skybandSpec{Spec: spec, K: 2})}
	frameOf := func(rows points.Set, codec points.FrameCodec) []byte {
		blk, ok := points.BlockOf(rows)
		if !ok {
			t.Fatal("ragged rows")
		}
		return points.AppendFrameCodec(nil, 0, blk, codec)
	}
	good := frameOf(data[:50], points.FrameV1)
	flipped := append([]byte(nil), good...)
	flipped[0] ^= 0x40 // the version byte
	// Header claims 2^40 rows of 3 coordinates over a 1200-byte payload.
	lying := append([]byte{points.FrameVersion, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 3}, good[4:]...)
	// A v2 frame — valid header, valid checksum — whose second value reuses
	// a bit window ('10') no earlier value set.
	payload := []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0x80}
	badWindow := binary.LittleEndian.AppendUint32([]byte{points.FrameVersion2, 0, 2, 1, byte(len(payload))}, crc32.ChecksumIEEE(payload))
	badWindow = append(badWindow, payload...)
	v2 := frameOf(data[:50], points.FrameV2)
	corruptV2 := append([]byte(nil), v2...)
	corruptV2[len(corruptV2)-3] ^= 0x10
	withRow := func(row points.Point) []byte {
		return frameOf(append(data[:20:20], row), points.FrameV1)
	}
	hostile := []struct {
		name      string
		frame     []byte
		want      string // the error names this
		partition bool   // only Job 1 looks at the coordinates
	}{
		{"truncated frame", good[:len(good)-5], "points: truncated frame", false},
		{"truncated header", good[:2], "points: bad frame", false},
		{"bit-flipped header", flipped, "points: unsupported frame version", false},
		{"count × dim beyond the payload", lying, "points: truncated frame", false},
		{"v2 window never set", badWindow, "points: v2 frame reuses window", false},
		{"v2 payload corrupted", corruptV2, "points: v2 frame checksum", false},
		{"v2 cut short", v2[:len(v2)-7], "points: truncated v2 frame", false},
		{"2-dim frame, 3-dim job", frameOf(data.Project(2)[:50], points.FrameV1), "imension", false},
		{"4-dim v2 frame, 3-dim job", frameOf(uniformSet(2, 50, 4), points.FrameV2), "imension", false},
		{"dimension changes mid-stream", append(append([]byte(nil), good...), frameOf(uniformSet(2, 5, 4), points.FrameV1)...), "points: decoding 4-dim frame into 3-dim block", false},
		{"NaN row", withRow(points.Point{1, math.NaN(), 1}), "points: NaN", true},
		{"+Inf row", withRow(points.Point{math.Inf(1), 1, 1}), "points: infinity", true},
		{"-Inf row", withRow(points.Point{1, 1, math.Inf(-1)}), "points: infinity", true},
		{"empty stream", nil, "mapreduce: map task without an input frame", false},
	}
	// One task's split, in the form the job takes: rows cut off an input for
	// Job 1, the whole candidate set — for two tasks — for the merge.
	splitOf := func(job string, frame []byte) rpcmr.Input {
		size := func(int, int) (int, error) { return len(frame), nil }
		raw := func(dst []byte, _, _ int) ([]byte, error) { return append(dst, frame...), nil }
		if wholeInput(job) {
			return rpcmr.WholeFrames([]int{25, 25}, []int{1, 1}, size, raw)
		}
		return rpcmr.FrameRows(50, size, raw)
	}
	master := startCluster(t, 3)
	for _, h := range hostile {
		for _, job := range allJobs {
			if h.partition && job.name != PartitionJobName && job.name != SkybandPartitionJobName {
				continue
			}
			_, err := master.Run(context.Background(), rpcmr.JobSpec{Name: job.name, Params: params[job.band], Reducers: 2}, splitOf(job.name, h.frame))
			if err == nil || !strings.Contains(err.Error(), h.want) {
				t.Errorf("%s, %s: cluster run returned %v, want an error naming %q", h.name, job.name, err, h.want)
			}
		}
	}
	// The dimension rows again, for their wording — Job 1's is the
	// partitioner's, the merges' the layout's dimension check — and their
	// type: what a worker could not do comes back as the task's error, not a
	// lost worker.
	narrow := frameOf(data.Project(2)[:50], points.FrameV1)
	for _, job := range allJobs {
		want := "partition: point has dimension 2, want 3"
		if wholeInput(job.name) {
			want = "skyline: unusable candidate set: 2-dimensional rows in a 3-dimensional merge"
		}
		_, err := master.Run(context.Background(), rpcmr.JobSpec{Name: job.name, Params: params[job.band], Reducers: 2}, splitOf(job.name, narrow))
		var taskErr *rpcmr.WorkerTaskError
		if !errors.As(err, &taskErr) || !strings.Contains(err.Error(), want) {
			t.Errorf("2-dim frame, %s: %v, want a WorkerTaskError saying %q", job.name, err, want)
		}
	}

	// A merge task's levels and group are its first two splits; a later
	// split of another dimension is streamed past the group's layout, and the
	// kill walk's dimension check refuses it.
	blk, _ := points.BlockOf(data[:50])
	sorted, err := skyline.Sort([]*points.Block{blk}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	levels := points.AppendFrameCodec(nil, 0, sorted.Levels, points.FrameV1)
	wide := frameOf(uniformSet(2, 5, 4), points.FrameV1)
	blocks := [][]byte{levels, good, wide}
	groupThenWide := rpcmr.WholeFrames([]int{60}, []int{3}, func(_, block int) (int, error) {
		return len(blocks[block]), nil
	}, func(dst []byte, _, block int) ([]byte, error) {
		return append(dst, blocks[block]...), nil
	})
	_, err = master.Run(context.Background(), rpcmr.JobSpec{Name: MergeJobName, Params: params[false]}, groupThenWide)
	if want := "skyline: unusable candidate set: 4-dimensional rows streamed past a 3-dimensional layout"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a 4-dim block streamed past a 3-dim group: %v, want an error saying %q", err, want)
	}

	res, err := ComputeSpec(context.Background(), master, data, spec, 3)
	if err != nil {
		t.Fatalf("good job after the hostile frames: %v", err)
	}
	if !sameMultiset(res.Skyline, skyline.BNL(data)) {
		t.Error("good job after the hostile frames: wrong skyline")
	}
	if st := master.Status(); st.LiveWorkers != 3 {
		t.Errorf("%d of 3 workers alive after the hostile frames", st.LiveWorkers)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
