package rpcmr

import (
	"context"
	"testing"
	"time"
)

func TestStatusIdle(t *testing.T) {
	ensureJobs()
	master, err := NewMaster(MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	st := master.Status()
	if st.JobRunning || st.Workers != 0 {
		t.Errorf("idle status = %+v", st)
	}
}

func TestStatusDuringAndAfterJob(t *testing.T) {
	master, workers, _ := newCluster(t, MasterConfig{SplitSize: 1}, 2, WorkerConfig{PollInterval: 5 * time.Millisecond})
	_ = workers

	done := make(chan error, 1)
	go func() {
		_, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, setFrames(wcInput, nil))
		done <- err
	}()

	// Poll until the job registers as running or finishes.
	sawRunning := false
	deadline := time.After(10 * time.Second)
	for !sawRunning {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// Finished before we sampled — acceptable on a fast machine.
			st := master.Status()
			if st.JobRunning {
				t.Errorf("finished job still running in status: %+v", st)
			}
			if st.Workers != 2 {
				t.Errorf("workers = %d", st.Workers)
			}
			return
		case <-deadline:
			t.Fatal("job never completed")
		default:
			st := master.Status()
			if st.JobRunning {
				sawRunning = true
				if st.JobName != "wordcount" {
					t.Errorf("job name = %q", st.JobName)
				}
				if st.TasksTotal == 0 {
					t.Errorf("no tasks in running status: %+v", st)
				}
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := master.Status()
	if st.JobRunning {
		t.Errorf("status still running after completion: %+v", st)
	}
	if st.LiveWorkers != 2 {
		t.Errorf("live workers = %d, want 2", st.LiveWorkers)
	}
}

func TestStatusOverRPC(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{}, 1, WorkerConfig{})
	client, err := dial(master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var st Status
	if err := client.Call("Master.Status", &StatusArgs{}, &st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 {
		t.Errorf("RPC status workers = %d, want 1", st.Workers)
	}
}
