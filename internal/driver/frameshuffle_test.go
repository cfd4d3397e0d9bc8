package driver

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/partition"
	"repro/internal/points"
)

// dupSet builds a uniform set and re-appends a slice of exact
// duplicates, so the pipeline's multiset semantics are exercised, not
// just its set semantics.
func dupSet(seed int64, n, d int) points.Set {
	s := uniformSet(seed, n, d)
	for i := 0; i < n/10; i++ {
		s = append(s, s[i].Clone())
	}
	return s
}

// TestFrameShuffleCounters: the framed run books shuffle counters with
// frame payload semantics (headers + coords, no gob envelope).
func TestFrameShuffleCounters(t *testing.T) {
	data := uniformSet(21, 1000, 4)
	_, stats, err := Compute(context.Background(), data, Options{Scheme: partition.Angular, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := stats.Counters["mr.shuffle.records"]
	if recs <= 0 || recs > int64(2*len(data)) {
		t.Errorf("shuffle records = %d, implausible for %d inputs", recs, len(data))
	}
	bytes := stats.Counters["mr.shuffle.bytes"]
	// Combined local skylines can only shrink data; payload bytes must be
	// below raw coordinate volume plus generous header slack.
	max := int64(len(data)*4*8) * 2
	if bytes <= 0 || bytes > max {
		t.Errorf("shuffle bytes = %d, want in (0, %d]", bytes, max)
	}
}

// TestMergeTasks: the merging job is one map task per worker as far as the
// candidates go round at mergeTaskRows each — a few hundred are one task,
// none are no task — from the two counts alone.
func TestMergeTasks(t *testing.T) {
	for _, c := range []struct{ workers, rows, want int }{
		{2, 0, 0}, {2, 1, 1}, {2, mergeTaskRows, 1}, {2, mergeTaskRows + 1, 2}, {2, 1 << 20, 2},
		{3, 2*mergeTaskRows + 1, 3}, {8, 3 * mergeTaskRows, 3}, {1, 1 << 20, 1},
		{0, 1 << 20, runtime.GOMAXPROCS(0)}, {-1, 1 << 20, runtime.GOMAXPROCS(0)},
	} {
		if got := MergeTasks(c.workers, c.rows); got != c.want {
			t.Errorf("MergeTasks(%d workers, %d rows) = %d, want %d", c.workers, c.rows, got, c.want)
		}
	}
}

// TestMergeJobOutputsTheResult: Job 2 lets through its map side only what
// the global skyline keeps — its map output is the result, row for row, and
// is the job's output, booked as mr.output.bytes — and combines, shuffles
// and reduces nothing, whatever the number of tasks: Job 1's shuffle and
// reduce counters are the run's.
func TestMergeJobOutputsTheResult(t *testing.T) {
	data := dupSet(23, 6000, 7)
	for _, workers := range []int{1, 2, 5} {
		sky, stats, err := Compute(context.Background(), data, Options{Scheme: partition.Angular, Nodes: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if tasks := MergeTasks(workers, stats.LocalSkylineTotal()); tasks != min(workers, 2) {
			t.Fatalf("%d candidates are %d merge tasks for %d workers: the test wants one, two and two", stats.LocalSkylineTotal(), tasks, workers)
		}
		n, kept, local := int64(len(data)), int64(len(sky)), int64(stats.LocalSkylineTotal())
		c := stats.Counters
		if c["mr.map.records.out"] != n+kept || c["mr.combine.records.in"] != n ||
			c["mr.reduce.records.out"] != local || c["mr.shuffle.records"] != c["mr.combine.records.out"] ||
			c["mr.output.bytes"] < kept*7*8 {
			t.Errorf("%d workers: counters %v; want map out %d + %d, combine in %d, reduce out %d, nothing shuffled but Job 1's, %d rows output",
				workers, c, n, kept, n, local, kept)
		}
		if stats.MergeJob.Map <= 0 || stats.MergeJob.Shuffle != 0 || stats.MergeJob.Reduce != 0 {
			t.Errorf("%d workers: merging job timing %+v; want its work timed in Map, and nothing else", workers, stats.MergeJob)
		}
	}
}
