package rpcmr

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/points"
)

// heldRequests reads the master's count of held, unanswered task requests.
func heldRequests(m *Master) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.held
}

// TestRunWaitsForSplitsInFlight: a split is checked and sized when it is
// handed out and read from the input only when the reply that carries it is
// written, so Run does not return while a split it handed out is unwritten.
// Replies that cross no wire are never sent, so here the test says when. A
// task whose worker died is handed out again, to the same bytes.
func TestRunWaitsForSplitsInFlight(t *testing.T) {
	ensureFrameJobs()
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 100, LivenessWindow: healthWindow}, 0, WorkerConfig{})
	data := frameClusterData(250, 3, 8) // 300 rows: three splits
	var framed atomic.Int64
	input := setFrames(data, func(int, int, []byte) { framed.Add(1) })
	// Three workers: three shares, one split each.
	svc := &MasterService{m: master}
	for _, id := range []string{"a", "b", "c"} {
		_ = svc.Register(RegisterArgs{WorkerID: id}, &RegisterReply{})
	}
	done := make(chan error, 1)
	go func() {
		_, err := master.Run(context.Background(), JobSpec{Name: "skyline-frame", Reducers: 1}, input)
		done <- err
	}()
	request := func(worker string) *TaskReply {
		reply := new(TaskReply)
		if err := svc.RequestTask(TaskArgs{WorkerID: worker}, reply); err != nil {
			t.Fatal(err)
		}
		if reply.Kind != TaskMap || reply.split.n != points.FrameRowsLen(0, 100, 3) || len(reply.Frames) != 0 {
			t.Fatalf("worker %s got kind %d, a %d-byte split and %d frame bytes; want a map task's 100-row split, unwritten",
				worker, reply.Kind, reply.split.n, len(reply.Frames))
		}
		return reply
	}
	a, b, c := request("a"), request("b"), request("c") // held until the job is installed
	if a.TaskID != 0 || b.TaskID != 1 || c.TaskID != 2 {
		t.Fatalf("tasks %d, %d and %d, want 0, 1 and 2", a.TaskID, b.TaskID, c.TaskID)
	}
	if n := framed.Load(); n != 0 {
		t.Fatalf("%d frames written for three replies not yet sent", n)
	}
	want, _ := points.AppendFrameRows(nil, 0, data[:100])
	if !bytes.Equal(delivered(a).Frames, want) {
		t.Fatal("split 0 as written is not its rows' frame")
	}
	silenceToDeath(t, master, "a")
	again := request("d")
	if again.TaskID != 0 || again.Attempt != 1 {
		t.Fatalf("task %d attempt %d after its holder died, want task 0 again", again.TaskID, again.Attempt)
	}
	if !bytes.Equal(delivered(again).Frames, want) {
		t.Error("the re-issued task's input differs from its first attempt's")
	}
	master.Close()
	for _, unsent := range []*TaskReply{b, c} {
		select {
		case err := <-done:
			t.Fatalf("Run returned (%v) while a split it handed out was unwritten", err)
		case <-time.After(50 * time.Millisecond):
		}
		delivered(unsent)
	}
	if err := <-done; err == nil {
		t.Error("job finished though none of its map tasks was executed")
	}
}

// TestNothingReadsTheInputAfterRun: when Run returns nothing reads its input
// any more — no split is being sized or written — whether the job was
// cancelled, its master closed, or it failed at a worker while a split was
// being written. Every row is overwritten the moment Run returns: under
// -race a read after that is a race, and a frame written after it is
// counted.
func TestNothingReadsTheInputAfterRun(t *testing.T) {
	ensureFrameJobs()
	for _, end := range []string{"cancelled", "closed", "failed"} {
		t.Run(end, func(t *testing.T) {
			master, _, _ := newCluster(t, MasterConfig{SplitSize: 100}, 2, WorkerConfig{})
			for master.WorkerCount() < 2 { // two workers: two tasks, of splits 0–11 and 12–23
				time.Sleep(time.Millisecond)
			}
			// failed: split 0 goes out, once the other task's first split is
			// being written, as a frame of no version; its task fails at its
			// worker and, on its only attempt, the job.
			master.maxAttempts = 1
			data := frameClusterData(2000, 3, 21) // 2 400 rows: 24 splits
			var (
				returned      atomic.Bool
				writing, late atomic.Int64
				once          sync.Once
			)
			inFlight := make(chan struct{})
			input := setFrames(data, func(lo, _ int, frame []byte) {
				if returned.Load() {
					late.Add(1)
				}
				if lo == 0 && end == "failed" {
					<-inFlight
					frame[0] = 0
				}
				if lo >= 300 { // from the fourth split on, a write is slow
					writing.Add(1)
					once.Do(func() { close(inFlight) })
					time.Sleep(20 * time.Millisecond)
					writing.Add(-1)
				}
			})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := master.Run(ctx, JobSpec{Name: "skyline-frame", Reducers: 2}, input)
				returned.Store(true)
				done <- err
			}()
			<-inFlight
			switch end {
			case "cancelled":
				cancel()
			case "closed":
				master.Close()
			}
			err := <-done
			if w := writing.Load(); err == nil || w != 0 {
				t.Fatalf("Run returned %v with %d splits still being written", err, w)
			}
			if end == "failed" && !strings.Contains(err.Error(), "frame version") {
				t.Fatalf("Run returned %v, want the worker's refusal of split 0", err)
			}
			for _, p := range data {
				for j := range p {
					p[j] = -1
				}
			}
			time.Sleep(50 * time.Millisecond)
			if n := late.Load(); n != 0 {
				t.Errorf("%d frames written after Run returned", n)
			}
		})
	}
}

// TestHeldRequestGivesUpWithItsConnection: a worker that dies parked on the
// master takes no task with it. Its held request notices the connection go
// and ends; the job that comes next runs on the worker that is left without
// waiting for the dead one to be found dead.
func TestHeldRequestGivesUpWithItsConnection(t *testing.T) {
	master, workers, _ := newCluster(t, MasterConfig{SplitSize: 4, LivenessWindow: time.Minute}, 1, WorkerConfig{PollInterval: time.Hour})
	waitFor(t, 5*time.Second, func() bool { return heldRequests(master) == 1 }, "the worker to park")
	if err := workers[0].Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return heldRequests(master) == 0 }, "the dead worker's request to give up")

	healthy, err := NewWorker(WorkerConfig{MasterAddr: master.Addr(), ID: "healthy", PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthy.Close() })
	go func() { _ = healthy.Run(context.Background()) }()
	res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, setFrames(wcInput, nil))
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, res)
	if st := master.Status(); st.WorkerFailures != 0 || st.TaskRetries != 0 {
		t.Errorf("%d lost workers, %d retries: a task went to the dead worker", st.WorkerFailures, st.TaskRetries)
	}
	if workers[0].Completed() != 0 {
		t.Error("the dead worker completed a task")
	}
}

// TestDrainAnswersHeldRequests: Drain returns when the workers parked on
// the master have their shutdown notice — not after a grace period — and a
// request that arrives later is told the same at once.
func TestDrainAnswersHeldRequests(t *testing.T) {
	master, _, wg := newCluster(t, MasterConfig{LivenessWindow: time.Minute}, 3, WorkerConfig{PollInterval: time.Hour})
	waitFor(t, 5*time.Second, func() bool { return heldRequests(master) == 3 }, "three workers to park")
	start := time.Now()
	master.Drain()
	if took := time.Since(start); took >= drainGrace {
		t.Errorf("Drain took %v with three parked workers, want well under its %v bound", took, drainGrace)
	}
	if n := heldRequests(master); n != 0 {
		t.Errorf("%d held requests unanswered after Drain", n)
	}
	exited := make(chan struct{})
	go func() { wg.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("workers did not exit after Drain")
	}
	var reply TaskReply
	if err := (&MasterService{m: master}).RequestTask(TaskArgs{WorkerID: "late"}, &reply); err != nil || reply.Kind != TaskShutdown {
		t.Errorf("request after Drain: kind %d, error %v; want TaskShutdown", reply.Kind, err)
	}
}

// TestDegenerateLivenessWindowNeverHolds: with no window to derive a hold
// from, RequestTask answers TaskWait at once, as it did before holds.
func TestDegenerateLivenessWindowNeverHolds(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{LivenessWindow: time.Nanosecond}, 0, WorkerConfig{})
	start := time.Now()
	var reply TaskReply
	if err := (&MasterService{m: master}).RequestTask(TaskArgs{WorkerID: "w"}, &reply); err != nil || reply.Kind != TaskWait {
		t.Fatalf("kind %d, error %v; want TaskWait", reply.Kind, err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("RequestTask took %v", took)
	}
	if n := heldRequests(master); n != 0 {
		t.Errorf("%d requests held", n)
	}
}
