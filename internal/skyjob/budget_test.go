package skyjob

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
	"repro/internal/skyline"
)

// TestClusterBudgetedMatchesUnbudgeted: a spec with a reducer budget and
// the v2 codec must produce exactly the default spec's skylines on a
// live cluster — including a budget tiny enough to force multi-pass
// folds on every worker.
func TestClusterBudgetedMatchesUnbudgeted(t *testing.T) {
	master := startCluster(t, 3)
	data := uniformSet(7, 1500, 4)
	want := skyline.Naive(data)

	spec, err := SpecFor(data, partition.Angular, 8)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ComputeSpec(context.Background(), master, data, spec, 3)
	if err != nil {
		t.Fatalf("unbudgeted: %v", err)
	}

	for _, budget := range []int64{1 << 24, 4 * 8 * 16} {
		spec.ReducerBudgetBytes = budget
		spec.Codec = points.FrameAuto
		got, err := ComputeSpec(context.Background(), master, data, spec, 3)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !sameMultiset(got.Skyline, base.Skyline) || !sameMultiset(got.Skyline, want) {
			t.Fatalf("budget %d: skyline %d pts, unbudgeted %d, oracle %d",
				budget, len(got.Skyline), len(base.Skyline), len(want))
		}
		for id, ls := range base.LocalSkylines {
			if !sameMultiset(ls, got.LocalSkylines[id]) {
				t.Fatalf("budget %d: partition %d local skylines differ", budget, id)
			}
		}
	}
}

// TestClusterBlockedPeakWithinBudget: with a budget below the candidates
// but above what Job 1's reducers hold, the whole run's reported peak — the
// max over Job 1's reduce tasks and the blocked round's map tasks, shipped
// by the workers — stays within the budget while the candidates exceed it,
// and the merge is one round of several groups that keeps the oracle's rows.
func TestClusterBlockedPeakWithinBudget(t *testing.T) {
	master := startCluster(t, 3)
	data := dataset.Generate(dataset.KindAnticorrelated, 9, 4000, 4)
	spec, err := SpecFor(data, partition.Angular, 32)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := ComputeSpec(context.Background(), master, data, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	candidates := int64(probe.Stats.LocalSkylineTotal() * spec.Dim * 8)
	spec.ReducerBudgetBytes, spec.Codec = candidates*3/4, points.FrameAuto
	res, err := ComputeSpec(context.Background(), master, data, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if !sameMultiset(res.Skyline, skyline.BNL(data)) {
		t.Errorf("%d skyline rows, the oracle's %d", len(res.Skyline), len(skyline.BNL(data)))
	}
	if st.MergeRounds != 1 || st.MergeGroups < 2 || !reflect.DeepEqual(st.MergeRoundBytes, []int64{candidates}) {
		t.Errorf("%d rounds of %d groups over %v bytes; want one round of >= 2 groups over %d", st.MergeRounds, st.MergeGroups, st.MergeRoundBytes, candidates)
	}
	if st.ReducerPeakBytes <= 0 || st.ReducerPeakBytes > spec.ReducerBudgetBytes || candidates <= spec.ReducerBudgetBytes {
		t.Errorf("a peak of %d bytes under a %d-byte budget, %d candidate bytes; want the peak within the budget and the candidates over it",
			st.ReducerPeakBytes, spec.ReducerBudgetBytes, candidates)
	}
	t.Logf("a peak of %d bytes under a %d-byte budget, %d candidate bytes in %d groups", st.ReducerPeakBytes, spec.ReducerBudgetBytes, candidates, st.MergeGroups)
}

// TestSpecBudgetTravels: budget and codec must survive the JSON trip to
// workers and materialize as a streaming folder.
func TestSpecBudgetTravels(t *testing.T) {
	spec := Spec{Scheme: partition.Grid, Dim: 3, Min: []float64{0, 0, 0},
		Max: []float64{1, 1, 1}, Partitions: 4,
		Codec: points.FrameAuto, ReducerBudgetBytes: 1 << 20}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.ReducerBudgetBytes != spec.ReducerBudgetBytes || back.Codec != spec.Codec {
		t.Fatalf("spec round-trip lost budget/codec: %+v", back)
	}
	// The budget bounds Job 1's folds, which are skyline folds with or
	// without one. The merging job is map-only, with no reduce fold: its
	// groups were sized to the budget by the master; it still seals by
	// codec.
	budgeted := func(job rpcmr.Job) bool {
		if job.FrameJob.Folder == nil {
			return false
		}
		fold, ok := job.FrameJob.Folder(0).(*skyline.BudgetedFold)
		if ok {
			fold.Close()
		}
		return ok
	}
	for _, factory := range []rpcmr.JobFactory{newPartitionJob, newMergeJob} {
		job, err := factory(raw)
		if err != nil {
			t.Fatal(err)
		}
		if merge := job.FrameJob.TaskMapper != nil; budgeted(job) == merge || job.Codec != points.FrameAuto {
			t.Fatalf("budgeted spec built budgeted folds=%v task mapper=%v codec=%v", budgeted(job), merge, job.Codec)
		}
	}
	back.ReducerBudgetBytes = 0
	raw, err = json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	job, err := newPartitionJob(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !budgeted(job) {
		t.Fatal("an unbudgeted spec reduces through the same fold, unbounded")
	}
}

// assembledBNLJob is the partitioning job as it reduced before every reducer
// was a fold: skyline.BlockBNL over each assembled partition.
const assembledBNLJob = "test/partition-assembled-bnl"

func init() {
	rpcmr.RegisterJob(assembledBNLJob, func(params []byte) (rpcmr.Job, error) {
		job, err := newPartitionJob(params)
		job.FrameJob.Folder = mapreduce.Assembled(func(_ int, blk *points.Block) (*points.Block, error) {
			return skyline.BlockBNL(blk), nil
		})
		return job, err
	})
}

// TestUnbudgetedReduceIsBlockBNL is driver's test of the same name on a
// two-worker cluster: without a budget the workers' folds return, partition
// by partition and row for row in order, what BlockBNL over the assembled
// partition does, for as many dominance tests, in one pass, reporting a peak
// and leaving no file where a fold would overflow to.
func TestUnbudgetedReduceIsBlockBNL(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	master := startCluster(t, 2)
	coarse := uniformSet(72, 3000, 3)
	for _, p := range coarse {
		for i := range p {
			p[i] = math.Floor(p[i] / 10)
		}
	}
	for name, data := range map[string]points.Set{
		"uniform":         uniformSet(71, 3000, 4),
		"duplicates":      coarse,
		"anti-correlated": dataset.Generate(dataset.KindAnticorrelated, 73, 3000, 4),
	} {
		spec, err := SpecFor(data, partition.Angular, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ComputeSpec(context.Background(), master, data, spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := compute(context.Background(), master, data, spec, spec, assembledBNLJob, MergeJobName, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Skyline, want.Skyline) || !reflect.DeepEqual(got.LocalSkylines, want.LocalSkylines) {
			t.Errorf("%s: the unbounded fold and BlockBNL over the assembled partition differ in a row or its place", name)
		}
		if st, parent := got.Stats, want.Stats; st.DominanceTests != parent.DominanceTests || st.DominanceTests == 0 ||
			st.MergePasses != 1 || st.ReducerPeakBytes <= 0 || st.MergeRounds != 0 {
			t.Errorf("%s: %d dominance tests (the assembled route's %d), %d passes, a peak of %d bytes, %d merge rounds",
				name, st.DominanceTests, parent.DominanceTests, st.MergePasses, st.ReducerPeakBytes, st.MergeRounds)
		}
		if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
			t.Errorf("%s: %d files in the temp directory, err %v", name, len(left), err)
		}
	}
}
