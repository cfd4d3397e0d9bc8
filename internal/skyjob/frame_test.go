package skyjob

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
	"repro/internal/skyline"
)

// TestSpecForFitsLikePartitionNew: the spec's angular cuts are those of
// partition.New — sampled on a large input, exact on a small one — so a
// worker's rebuilt partitioner assigns every point as the in-process
// driver's does, and invalid input keeps this package's error prefix.
func TestSpecForFitsLikePartitionNew(t *testing.T) {
	for _, n := range []int{500, 20000} { // either side of New's fit sample
		data := uniformSet(int64(n), n, 5)
		spec, err := SpecFor(data, partition.Angular, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := partition.New(partition.Angular, data, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range data {
			g, _ := got.Assign(p)
			w, _ := want.Assign(p)
			if g != w {
				t.Fatalf("n=%d point %d: spec assigns partition %d, partition.New %d", n, i, g, w)
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

// TestFramedMapSideMatchesBlockCombiner: a worker's map task folding its
// records into incremental windows ships the bytes the staged block
// combiner shipped, for both jobs.
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
	records := make([][]byte, len(data))
	for i, p := range data {
		records[i] = points.Encode(p)
	}
	for name, factory := range map[string]rpcmr.JobFactory{PartitionJobName: newPartitionJob, MergeJobName: newMergeJob} {
		job, err := factory(params)
		if err != nil {
			t.Fatal(err)
		}
		if job.Accumulators == nil || job.FrameCombiner != nil {
			t.Fatalf("%s: BNL job does not fold map-side windows", name)
		}
		got, gotStats, err := mapreduce.BuildFramesInto(job.Accumulators, records, 3, job.FrameMapper, nil, spec.Codec)
		if err != nil {
			t.Fatal(err)
		}
		staged := func(_ int, blk *points.Block) (*points.Block, error) { return skyline.BlockBNL(blk), nil }
		want, wantStats, err := mapreduce.BuildFrames(records, 3, job.FrameMapper, staged, spec.Codec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: window streams differ from staged block-combiner streams", name)
		}
		gotStats.CombineNanos, wantStats.CombineNanos = 0, 0
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Errorf("%s: stats %+v, staged %+v", name, gotStats, wantStats)
		}
	}
}
