package rpcmr

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestStressManyTasksWithChaos runs jobs of 200 one-row splits over 6
// workers, two of which crash holding their second task: one job after
// another, until both have gone and the health sweep has found them dead.
// Re-queueing a dead worker's task — a whole share, a reduce task — must
// carry every job to a correct result, whichever task a doomed worker held.
func TestStressManyTasksWithChaos(t *testing.T) {
	ensureJobs()
	master, err := NewMaster(MasterConfig{
		SplitSize:      1,
		LivenessWindow: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	for i := 0; i < 6; i++ {
		cfg := WorkerConfig{
			MasterAddr:   master.Addr(),
			ID:           fmt.Sprintf("chaos-%d", i),
			PollInterval: 2 * time.Millisecond,
		}
		if i < 2 {
			cfg.VanishAfterTasks = 1 // the first two die early, holding a task
		}
		w, err := NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		go func() { _ = w.Run(context.Background()) }()
	}

	// 200 one-row splits: word i%13, and after every one the common word 13.
	var ids []int
	for i := 0; i < 100; i++ {
		ids = append(ids, i%13, 13)
	}
	for job := 0; master.Status().WorkerFailures < 2; job++ {
		if job == 10 {
			t.Fatalf("%d lost workers after %d jobs, want the 2 doomed ones", master.Status().WorkerFailures, job)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		res, err := master.Run(ctx, JobSpec{Name: "wordcount", Reducers: 4}, setFrames(tallyRows(ids...), nil))
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		got := tallies(t, res)
		if got[13] != 100 {
			t.Errorf("job %d: common = %d, want 100", job, got[13])
		}
		for i := 0; i < 13; i++ {
			if n := got[i]; n < 7 || n > 8 {
				t.Errorf("job %d: word%d = %d, want 7..8", job, i, n)
			}
		}
	}
}

// TestStressSequentialJobsAfterChaos verifies the master stays usable for
// later jobs after a chaotic one.
func TestStressSequentialJobsAfterChaos(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 2, LivenessWindow: 100 * time.Millisecond}, 3,
		WorkerConfig{PollInterval: 2 * time.Millisecond})
	healthyInput := tallyRows(0, 1, 1, 2, 2, 0) // "x y", "y z", "z x"
	for round := 0; round < 5; round++ {
		res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, setFrames(healthyInput, nil))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got, want := tallies(t, res), map[int]int{0: 2, 1: 2, 2: 2}; !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: counts %v, want %v", round, got, want)
		}
	}
}
