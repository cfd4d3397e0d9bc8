package mapreduce

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/points"
)

// The spilled shuffle: with Config.SpillDir set, each map task writes its
// per-reducer frame streams to disk and the reduce tasks read them back in
// map-task order. It must be indistinguishable from the in-memory shuffle.

func TestExternalShuffleMatchesInMemory(t *testing.T) {
	data := frameTestData(300, 3, 4)
	mapper, folder := identityFrameJob(17)
	runWith := func(spill string) *FrameResult {
		res, err := RunFrames(context.Background(),
			Config{Workers: 3, Reducers: 3, SplitSize: 20, SpillDir: spill},
			FrameJob{Feed: SetRows(data), Mapper: mapper, Folder: folder})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mem, ext := runWith(""), runWith(t.TempDir())
	if len(mem.Blocks) != len(ext.Blocks) {
		t.Fatalf("%d partitions in memory, %d spilled", len(mem.Blocks), len(ext.Blocks))
	}
	// Row order within a partition included: it detects both grouping and
	// ordering differences between the two shuffles.
	for id, blk := range mem.Blocks {
		if other := ext.Blocks[id]; other == nil || !reflect.DeepEqual(blk.ToSet(), other.ToSet()) {
			t.Fatalf("partition %d differs between the two shuffles", id)
		}
	}
}

func TestExternalShuffleReduceRetry(t *testing.T) {
	// A reduce task that fails on its first attempt must be replayable
	// from the spill runs, which go away with the job and not before.
	dir := t.TempDir()
	var failures int32
	folder := Assembled(func(partition int, blk *points.Block) (*points.Block, error) {
		if atomic.AddInt32(&failures, 1) == 1 {
			return nil, errors.New("transient reduce failure")
		}
		return tallyCombiner(partition, blk)
	})
	rows := points.Set{{0}, {0}, {0}, {0}, {0}, {0}}
	counts, res := tally(t, Config{Workers: 1, Reducers: 1, SplitSize: 5, SpillDir: dir, MaxAttempts: 3},
		rows, FrameJob{Mapper: tallyMapper, Folder: folder})
	if len(counts) != 1 || counts[0] != 6 {
		t.Fatalf("counts = %v", counts)
	}
	if res.Counters.Get(CounterRedRetries) == 0 {
		t.Error("no reduce retry recorded")
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("leftover spill runs after retry: %v", left)
	}
}

func TestExternalShuffleCountsRecords(t *testing.T) {
	rows := points.Set{{0}, {1}, {0}}
	job := FrameJob{Mapper: tallyMapper, Folder: tallyFolder}
	_, mem := tally(t, Config{SplitSize: 1}, rows, job)
	_, ext := tally(t, Config{SplitSize: 1, SpillDir: t.TempDir()}, rows, job)
	if got := ext.Counters.Get(CounterShuffle); got != 3 {
		t.Errorf("spilled shuffle counted %d records, want 3", got)
	}
	if m, e := mem.Counters.Get(CounterShuffleBytes), ext.Counters.Get(CounterShuffleBytes); m != e || e == 0 {
		t.Errorf("shuffle bytes: %d in memory, %d spilled", m, e)
	}
}
