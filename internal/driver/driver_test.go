package driver

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/skyline"
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

func allSchemes() []partition.Scheme {
	return []partition.Scheme{partition.Dimensional, partition.Grid, partition.Angular, partition.Random}
}

func TestAllSchemesMatchOracle(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		data := uniformSet(int64(d), 800, d)
		want := skyline.Naive(data)
		for _, scheme := range allSchemes() {
			got, stats, err := Compute(context.Background(), data, Options{Scheme: scheme, Nodes: 4})
			if err != nil {
				t.Fatalf("%v d=%d: %v", scheme, d, err)
			}
			if !sameMultiset(got, want) {
				t.Errorf("%v d=%d: global skyline has %d points, oracle %d", scheme, d, len(got), len(want))
			}
			if stats.Partitions < 8 && scheme != partition.Dimensional {
				t.Errorf("%v: %d partitions, want >= 8 (2 × 4 nodes)", scheme, stats.Partitions)
			}
		}
	}
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

// TestAllKernelsMatch: a kernel is a job edit (see jobedit_test.go), and
// Algorithm 1 over any of the ablation rows' kernels — the R-tree BBS, which
// carries index state, among them — returns the oracle's skyline.
func TestAllKernelsMatch(t *testing.T) {
	data := uniformSet(5, 500, 3)
	want := skyline.Naive(data)
	for name, k := range map[string]skyline.Func{"BNL": skyline.BNL, "SFS": skyline.SFS, "D&C": skyline.DivideConquer, "BBS": bbsKernel} {
		for _, scheme := range []partition.Scheme{partition.Angular, partition.Grid} {
			got, _, err := computeEdited(context.Background(), data, 0, Options{Scheme: scheme}, withKernel(k))
			if err != nil {
				t.Fatalf("kernel %s, %v: %v", name, scheme, err)
			}
			if !sameMultiset(got, want) {
				t.Errorf("kernel %s, %v disagrees with oracle", name, scheme)
			}
		}
	}
}

func TestCombinerAblationSameResult(t *testing.T) {
	data := uniformSet(6, 1000, 4)
	withC, sw, err := Compute(context.Background(), data, Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	without, so, err := computeEdited(context.Background(), data, 0, Options{Scheme: partition.Angular}, noCombiner)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(withC, without) {
		t.Error("combiner changed the result")
	}
	// The combiner must cut the shuffle volume of the partitioning job.
	if sw.Counters["mr.shuffle.records"] >= so.Counters["mr.shuffle.records"] {
		t.Errorf("combiner did not reduce shuffle: %d vs %d",
			sw.Counters["mr.shuffle.records"], so.Counters["mr.shuffle.records"])
	}
}

func TestGridPruningSameResultAndPrunes(t *testing.T) {
	data := uniformSet(7, 2000, 2)
	pruned, sp, err := Compute(context.Background(), data, Options{Scheme: partition.Grid, Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	unpruned, su, err := computeEdited(context.Background(), data, 0, Options{Scheme: partition.Grid, Nodes: 8}, asIs)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(pruned, unpruned) {
		t.Error("grid pruning changed the result")
	}
	if sp.PrunedPartitions == 0 {
		t.Error("no cells pruned on dense uniform 2-D data")
	}
	if su.PrunedPartitions != 0 {
		t.Error("pruning reported while disabled")
	}
	if sp.LocalSkylineTotal() > su.LocalSkylineTotal() {
		t.Errorf("pruning increased local skyline volume: %d vs %d",
			sp.LocalSkylineTotal(), su.LocalSkylineTotal())
	}
}

func TestLocalSkylinesAreLocalSkylines(t *testing.T) {
	data := uniformSet(8, 1200, 3)
	_, stats, err := Compute(context.Background(), data, Options{Scheme: partition.Angular, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild partition membership and verify each reported local skyline
	// is exactly the skyline of its partition's points.
	part, err := partition.New(partition.Angular, data, 8)
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
		got := stats.LocalSkylines[id]
		if !sameMultiset(got, want) {
			t.Errorf("partition %d: local skyline %d points, want %d", id, len(got), len(want))
		}
	}
	// Partition counts must cover the whole input.
	total := 0
	for _, c := range stats.PartitionCounts {
		total += c
	}
	if total != len(data) {
		t.Errorf("partition counts sum to %d, want %d", total, len(data))
	}
}

// TestStatsTimingAggregation: on every route — the single merging job,
// budgeted Compute and ComputeStream, whose merge is the round schedule —
// the merge is timed, and Timing is the two jobs' sum.
func TestStatsTimingAggregation(t *testing.T) {
	data := uniformSet(9, 300, 2)
	src, err := dataset.NewSource(dataset.KindIndependent, 9, 300, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	budgeted := Options{Scheme: partition.Dimensional, ReducerBudgetBytes: 1 << 10, SpillDir: t.TempDir()}
	routes := map[string]func() (points.Set, *Stats, error){
		"Compute": func() (points.Set, *Stats, error) {
			return Compute(context.Background(), data, Options{Scheme: partition.Dimensional})
		},
		"budgeted Compute": func() (points.Set, *Stats, error) {
			return Compute(context.Background(), data, budgeted)
		},
		"ComputeStream": func() (points.Set, *Stats, error) {
			return ComputeStream(context.Background(), src, budgeted)
		},
	}
	for name, run := range routes {
		_, stats, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.Timing.Total != stats.PartitionJob.Total+stats.MergeJob.Total {
			t.Errorf("%s: timing total %v != %v + %v", name, stats.Timing.Total, stats.PartitionJob.Total, stats.MergeJob.Total)
		}
		if stats.PartitionJob.Total <= 0 || stats.MergeJob.Total <= 0 {
			t.Errorf("%s: partition job %v, merge %v: a job went untimed", name, stats.PartitionJob.Total, stats.MergeJob.Total)
		}
	}
}

func TestSpillModeSameResult(t *testing.T) {
	data := uniformSet(10, 600, 3)
	want := skyline.Naive(data)
	got, _, err := Compute(context.Background(), data, Options{Scheme: partition.Grid, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, want) {
		t.Error("spill mode changed the result")
	}
}

func TestRejectsInvalidInput(t *testing.T) {
	if _, _, err := Compute(context.Background(), nil, Options{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := Compute(context.Background(), points.Set{{1, 2}, {3}}, Options{}); err == nil {
		t.Error("ragged input accepted")
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data := uniformSet(11, 10000, 6)
	if _, _, err := Compute(ctx, data, Options{Scheme: partition.Angular}); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestSingleNodeDegenerate(t *testing.T) {
	data := uniformSet(12, 200, 2)
	want := skyline.Naive(data)
	got, stats, err := Compute(context.Background(), data, Options{Scheme: partition.Angular, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, want) {
		t.Error("single-node result wrong")
	}
	if stats.Partitions < 2 {
		t.Errorf("partitions = %d, want >= 2 (2 × 1 node)", stats.Partitions)
	}
}

func TestExplicitPartitionOverride(t *testing.T) {
	data := uniformSet(13, 400, 2)
	_, stats, err := Compute(context.Background(), data, Options{Scheme: partition.Angular, Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Partitions != 16 {
		t.Errorf("partitions = %d, want 16", stats.Partitions)
	}
}

func TestDuplicatePointsSurviveTogether(t *testing.T) {
	data := points.Set{{1, 1}, {1, 1}, {5, 5}, {2, 9}, {9, 2}}
	got, _, err := Compute(context.Background(), data, Options{Scheme: partition.Grid})
	if err != nil {
		t.Fatal(err)
	}
	dups := 0
	for _, p := range got {
		if p.Equal(points.Point{1, 1}) {
			dups++
		}
	}
	if dups != 2 {
		t.Errorf("kept %d copies of duplicate skyline point, want 2", dups)
	}
}

func TestAnticorrelatedHeavySkyline(t *testing.T) {
	// Anti-correlated data has a huge skyline — the stress case.
	rng := rand.New(rand.NewSource(14))
	data := make(points.Set, 500)
	for i := range data {
		x := rng.Float64()
		data[i] = points.Point{x, 1 - x + 0.01*rng.Float64()}
	}
	want := skyline.Naive(data)
	for _, scheme := range allSchemes() {
		got, _, err := Compute(context.Background(), data, Options{Scheme: scheme})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !sameMultiset(got, want) {
			t.Errorf("%v: %d points, oracle %d", scheme, len(got), len(want))
		}
	}
}

func TestIncrementalIndex(t *testing.T) {
	data := uniformSet(15, 500, 2)
	ix, err := BuildIndex(context.Background(), data, Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(ix.Global(), skyline.Naive(data)) {
		t.Fatal("initial index global skyline wrong")
	}

	// Add a dominating point: it must enter the global skyline.
	winner := points.Point{0.001, 0.001}
	_, inGlobal, err := ix.Add(winner)
	if err != nil {
		t.Fatal(err)
	}
	if !inGlobal {
		t.Error("strictly dominating point not in global skyline")
	}
	want := skyline.Naive(append(data.Clone(), winner))
	if !sameMultiset(ix.Global(), want) {
		t.Error("incremental global skyline diverges from batch recompute after dominating add")
	}

	// Add a clearly dominated point: global skyline must not change.
	loser := points.Point{99.9, 99.9}
	_, inGlobal, err = ix.Add(loser)
	if err != nil {
		t.Fatal(err)
	}
	if inGlobal {
		t.Error("dominated point reported in global skyline")
	}
	if !sameMultiset(ix.Global(), want) {
		t.Error("dominated add changed the global skyline")
	}
}

func TestIncrementalMatchesBatchOverStream(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	initial := uniformSet(17, 300, 3)
	ix, err := BuildIndex(context.Background(), initial, Options{Scheme: partition.Grid})
	if err != nil {
		t.Fatal(err)
	}
	all := initial.Clone()
	for i := 0; i < 100; i++ {
		p := points.Point{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		all = append(all, p)
		if _, _, err := ix.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if !sameMultiset(ix.Global(), skyline.Naive(all)) {
		t.Error("incremental index diverged from batch skyline after 100 adds")
	}
	if ix.Size() >= len(all) {
		t.Errorf("index retains %d points for %d services — no compression", ix.Size(), len(all))
	}
}

func TestIncrementalAddRejectsBadPoint(t *testing.T) {
	ix, err := BuildIndex(context.Background(), uniformSet(18, 50, 2), Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Add(points.Point{1}); err == nil {
		t.Error("wrong-dimension add accepted")
	}
}
