package skyjob

import (
	"context"
	"encoding/json"
	"testing"

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
	// The budget makes Job 1's reducers folds. The merging job has no use for
	// it — its filter needs the candidates resident, and a budgeted run merges
	// in rounds on the master instead of running it — but still seals by codec.
	for _, factory := range []rpcmr.JobFactory{newPartitionJob, newMergeJob} {
		job, err := factory(raw)
		if err != nil {
			t.Fatal(err)
		}
		folds := job.FrameJob.Folder != nil && job.FrameJob.Reducer == nil
		if merge := job.FrameJob.TaskMapper != nil; folds == merge || job.Codec != points.FrameAuto {
			t.Fatalf("budgeted spec built folder=%v reducer=%v task mapper=%v codec=%v",
				job.FrameJob.Folder != nil, job.FrameJob.Reducer != nil, merge, job.Codec)
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
	if job.FrameJob.Folder != nil || job.FrameJob.Reducer == nil {
		t.Fatal("unbudgeted spec must reduce assembled blocks")
	}
}
