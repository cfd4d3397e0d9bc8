package mapreduce

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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
			Config{Workers: 3, Reducers: 3, SpillDir: spill},
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

// TestExternalShuffleReduceFailure: a reduce task that fails fails its job
// on that first error, naming the task, and the spill runs it was reading
// go away with the job; no goroutine outlives it.
func TestExternalShuffleReduceFailure(t *testing.T) {
	dir := t.TempDir()
	goroutines := runtime.NumGoroutine()
	var calls atomic.Int32
	folder := Assembled(func(int, *points.Block) (*points.Block, error) {
		calls.Add(1)
		return nil, errors.New("reduce failure")
	})
	_, err := RunFrames(context.Background(), Config{Name: "spilled", Workers: 2, Reducers: 1, SpillDir: dir},
		FrameJob{Feed: SetRows(points.Set{{0}, {0}, {0}, {0}, {0}, {0}}), Mapper: tallyMapper, Folder: folder})
	if err == nil || err.Error() != "mapreduce: spilled: reduce task 0: reduce failure" {
		t.Fatalf("err = %v, want reduce task 0's first error", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("reducer ran %d times, want 1", n)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("leftover spill runs after a failed job: %v", left)
	}
	waitForGoroutines(t, goroutines)
}

func TestExternalShuffleCountsRecords(t *testing.T) {
	rows := points.Set{{0}, {1}, {0}}
	job := FrameJob{Mapper: tallyMapper, Folder: tallyFolder}
	_, mem := tally(t, Config{Workers: 3}, rows, job)
	_, ext := tally(t, Config{Workers: 3, SpillDir: t.TempDir()}, rows, job)
	if got := ext.Counters.Get(CounterShuffle); got != 3 {
		t.Errorf("spilled shuffle counted %d records, want 3", got)
	}
	if m, e := mem.Counters.Get(CounterShuffleBytes), ext.Counters.Get(CounterShuffleBytes); m != e || e == 0 {
		t.Errorf("shuffle bytes: %d in memory, %d spilled", m, e)
	}
}

// waitForGoroutines fails the test unless the goroutine count falls back
// to what it was before a job within two seconds.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after the job, %d before", runtime.NumGoroutine(), before)
			return
		}
	}
}
