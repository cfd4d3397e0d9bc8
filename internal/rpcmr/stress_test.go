package rpcmr

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestStressManyTasksWithChaos runs a 200-task job over 6 workers, two of
// which crash while holding tasks partway through; lease reassignment must
// carry the job to a correct result.
func TestStressManyTasksWithChaos(t *testing.T) {
	ensureJobs()
	master, err := NewMaster(MasterConfig{
		SplitSize: 1,
		TaskLease: 300 * time.Millisecond,
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
			cfg.VanishAfterTasks = 5 // the first two die early, holding a task
		}
		w, err := NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		go func() { _ = w.Run(context.Background()) }()
	}

	input := make([][]byte, 200)
	for i := range input {
		input[i] = []byte(fmt.Sprintf("word%d common", i%13))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := master.Run(ctx, JobSpec{Name: "wordcount", Reducers: 4}, Records(input))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, p := range res.Pairs {
		got[p.Key] = string(p.Value)
	}
	if got["common"] != "200" {
		t.Errorf("common = %s, want 200", got["common"])
	}
	for i := 0; i < 13; i++ {
		key := "word" + strconv.Itoa(i)
		n, err := strconv.Atoi(got[key])
		if err != nil || n < 15 || n > 16 {
			t.Errorf("%s = %q, want 15..16", key, got[key])
		}
	}
}

// TestStressSequentialJobsAfterChaos verifies the master stays usable for
// later jobs after a chaotic one.
func TestStressSequentialJobsAfterChaos(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 2, TaskLease: 300 * time.Millisecond}, 3,
		WorkerConfig{PollInterval: 2 * time.Millisecond})
	healthyInput := [][]byte{[]byte("x y"), []byte("y z"), []byte("z x")}
	for round := 0; round < 5; round++ {
		res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, Records(healthyInput))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		joined := ""
		for _, p := range res.Pairs {
			joined += p.Key + "=" + string(p.Value) + " "
		}
		for _, want := range []string{"x=2", "y=2", "z=2"} {
			if !strings.Contains(joined, want) {
				t.Fatalf("round %d: missing %s in %s", round, want, joined)
			}
		}
	}
}
