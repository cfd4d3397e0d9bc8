package rpcmr

import (
	"bytes"
	"context"
	"testing"
	"time"
	"unsafe"

	"repro/internal/points"
)

// heldRequests reads the master's count of held, unanswered task requests.
func heldRequests(m *Master) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.held
}

// TestSplitBufferBorrowedUntilSent: a split buffer belongs to the reply that
// carries it until that reply has been sent, and only then to the next
// split. Replies that cross no wire are never sent, so here the test says
// when: two tasks in flight are two buffers; the one that is sent is the
// next task's; and a task whose worker died is sealed again — the same
// bytes — into memory that is none of the unsent replies'.
func TestSplitBufferBorrowedUntilSent(t *testing.T) {
	ensureFrameJobs()
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 100, LivenessWindow: healthWindow}, 0, WorkerConfig{})
	data := frameClusterData(250, 3, 8) // 300 rows: three splits
	// split's first row → the memory it was last asked to seal into. Splits
	// are sealed by whoever asks for a task: here, this goroutine alone.
	lent := map[int]*byte{}
	input := FrameRows(len(data), func(dst []byte, lo, hi int) ([]byte, error) {
		lent[lo] = unsafe.SliceData(dst)
		return points.AppendFrameRows(dst, 0, data[lo:hi])
	})
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
		if reply.Kind != TaskMap || len(reply.Frames) == 0 {
			t.Fatalf("worker %s got kind %d with %d frame bytes, want a map task", worker, reply.Kind, len(reply.Frames))
		}
		return reply
	}
	a, b := request("a"), request("b") // held until the job is installed
	if a.TaskID != 0 || b.TaskID != 1 {
		t.Fatalf("tasks %d and %d, want 0 and 1", a.TaskID, b.TaskID)
	}
	if lent[0] != nil || lent[100] != nil || unsafe.SliceData(a.Frames) == unsafe.SliceData(b.Frames) {
		t.Fatal("two tasks in flight do not have a buffer each")
	}
	first := bytes.Clone(a.Frames)
	sentMemory := unsafe.SliceData(a.Frames)
	a.sent()
	c := request("c")
	if c.TaskID != 2 || lent[200] != sentMemory {
		t.Errorf("task %d was not sealed into the buffer the sent reply gave back", c.TaskID)
	}
	for _, id := range []string{"a", "b", "c"} { // all three holders die, a's task first
		silenceToDeath(t, master, id)
	}
	again := request("d")
	if again.TaskID != 0 || again.Attempt != 1 {
		t.Fatalf("task %d attempt %d after the holders died, want task 0 again", again.TaskID, again.Attempt)
	}
	for name, unsent := range map[string]*TaskReply{"b": b, "c": c} {
		if lent[0] == unsafe.SliceData(unsent.Frames) {
			t.Errorf("the re-issued task was sealed into the buffer of reply %s, which has not been sent", name)
		}
	}
	if !bytes.Equal(again.Frames, first) {
		t.Error("the re-issued task's input differs from its first attempt's")
	}
	master.Close()
	if err := <-done; err == nil {
		t.Error("job finished though none of its map tasks was executed")
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
