package skyjob

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

func uniformSet(seed int64, n, d int) points.Set {
	rng := rand.New(rand.NewSource(seed))
	s := make(points.Set, n)
	for i := range s {
		p := make(points.Point, d)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		s[i] = p
	}
	return s
}

// clusterSplit is startCluster's MasterConfig.SplitSize.
const clusterSplit = 200

func startCluster(t *testing.T, workers int) *rpcmr.Master {
	t.Helper()
	master, err := rpcmr.NewMaster(rpcmr.MasterConfig{SplitSize: clusterSplit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	for i := 0; i < workers; i++ {
		w, err := rpcmr.NewWorker(rpcmr.WorkerConfig{
			MasterAddr:   master.Addr(),
			ID:           "sw" + strconv.Itoa(i),
			PollInterval: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		go func() { _ = w.Run(context.Background()) }()
	}
	return master
}

// partitionMapTasks returns the traced map-task spans of Job 1's rpcmr job.
func partitionMapTasks(tr *telemetry.Tracer) []telemetry.SpanData {
	var job1 uint64
	for _, s := range tr.Spans() {
		if s.Name == "rpcmr-job:"+PartitionJobName {
			job1 = s.ID
		}
	}
	var out []telemetry.SpanData
	for _, s := range tr.Spans() {
		if s.Name == "map-task" && s.Parent == job1 {
			out = append(out, s)
		}
	}
	return out
}

func sameMultiset(a, b points.Set) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int, len(a))
	for _, p := range a {
		count[points.Key(p)]++
	}
	for _, p := range b {
		count[points.Key(p)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestDistributedSkylineMatchesOracle(t *testing.T) {
	master := startCluster(t, 3)
	data := uniformSet(1, 1500, 3)
	want := skyline.Naive(data)
	for _, scheme := range []partition.Scheme{partition.Dimensional, partition.Grid, partition.Angular} {
		res, err := Compute(context.Background(), master, data, scheme, 8, 3)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !sameMultiset(res.Skyline, want) {
			t.Errorf("%v: skyline %d points, oracle %d", scheme, len(res.Skyline), len(want))
		}
		if len(res.LocalSkylines) == 0 {
			t.Errorf("%v: no local skylines reported", scheme)
		}
	}
}

func TestDistributedLocalSkylinesConsistent(t *testing.T) {
	master := startCluster(t, 2)
	data := uniformSet(2, 800, 2)
	res, err := Compute(context.Background(), master, data, partition.Angular, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFor(data, partition.Angular, 4)
	if err != nil {
		t.Fatal(err)
	}
	part, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	byPart := map[int]points.Set{}
	for _, p := range data {
		id, err := part.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		byPart[id] = append(byPart[id], p)
	}
	for id, members := range byPart {
		want := skyline.Naive(members)
		if !sameMultiset(res.LocalSkylines[id], want) {
			t.Errorf("partition %d: local skyline %d, want %d", id, len(res.LocalSkylines[id]), len(want))
		}
	}
}

func TestSpecBuildAllSchemes(t *testing.T) {
	data := uniformSet(3, 50, 4)
	for _, scheme := range []partition.Scheme{partition.Dimensional, partition.Grid, partition.Angular, partition.Random} {
		spec, err := SpecFor(data, scheme, 8)
		if err != nil {
			t.Fatal(err)
		}
		part, err := spec.Build()
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if _, err := part.Assign(data[0]); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
	}
	if _, err := SpecFor(nil, partition.Grid, 4); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := (Spec{Plan: partition.Plan{Scheme: partition.Scheme(99), Min: points.Point{0, 0}, Max: points.Point{1, 1}, Partitions: 4}}).build(); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := (Spec{Plan: partition.Plan{Scheme: partition.Grid, Min: points.Point{0, 0}, Max: points.Point{1, 1, 1}, Partitions: 4}}).build(); err == nil {
		t.Error("mismatched bounds accepted")
	}
}

func TestWorkersAgreeOnPartitioner(t *testing.T) {
	// The same spec must produce identical assignments in different
	// "processes" (here: separate Build calls), or the distributed local
	// skylines would be wrong.
	data := uniformSet(4, 300, 5)
	spec, err := SpecFor(data, partition.Angular, 16)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range data {
		a, err := p1.Assign(pt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p2.Assign(pt)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("assignment mismatch for %v: %d vs %d", pt, a, b)
		}
	}
}

func TestConcurrentComputesSerialize(t *testing.T) {
	// The master rejects overlapping jobs; Compute callers must see either
	// success or a clear error, never corruption.
	master := startCluster(t, 2)
	data := uniformSet(5, 400, 2)
	want := skyline.Naive(data)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	results := make([]*Result, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Compute(context.Background(), master, data, partition.Grid, 4, 2)
		}(i)
	}
	wg.Wait()
	okCount := 0
	for i := range errs {
		if errs[i] == nil {
			okCount++
			if !sameMultiset(results[i].Skyline, want) {
				t.Errorf("run %d: wrong skyline", i)
			}
		}
	}
	if okCount == 0 {
		t.Error("both concurrent computes failed")
	}
}

func TestResultOptimality(t *testing.T) {
	master := startCluster(t, 2)
	data := uniformSet(21, 600, 3)
	res, err := Compute(context.Background(), master, data, partition.Angular, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := res.Optimality()
	if o <= 0 || o > 1 {
		t.Errorf("optimality = %g", o)
	}
}
