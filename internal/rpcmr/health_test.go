package rpcmr

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// silence ages worker id by d — its last heartbeat moves d into the past —
// and sweeps the health state machine, as the background sweep would after
// d of real silence. The tests age workers this way rather than wait out a
// wall-clock window: a poll that samples Health every few milliseconds
// misses a suspect state that lasts only two windows on a loaded machine.
func silence(t *testing.T, m *Master, id string, d time.Duration) {
	t.Helper()
	m.mu.Lock()
	w := m.workers[id]
	if w != nil {
		w.lastSeen = w.lastSeen.Add(-d)
	}
	m.mu.Unlock()
	if w == nil {
		t.Fatalf("no worker %s", id)
	}
	m.sweepWorkerStates(time.Now())
}

// healthWindow is the tests' LivenessWindow: long enough that no live
// worker's real silence — a parked request is held for half of it — nor the
// background sweep, every quarter of it, moves a state while a test runs.
const healthWindow = time.Minute

// transitions returns every rpcmr_worker_transitions_total{to,worker}
// series reg holds, by rendered id.
func transitions(reg *telemetry.Registry) map[string]int64 {
	out := map[string]int64{}
	for id, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(id, "rpcmr_worker_transitions_total{") {
			out[id] = v
		}
	}
	return out
}

// TestWorkerHealthStateMachine kills one worker of three and asserts it
// walks healthy → suspect → dead with exactly one transition counted per
// edge, while the surviving workers stay healthy.
func TestWorkerHealthStateMachine(t *testing.T) {
	reg := telemetry.NewRegistry()
	master, workers, _ := newCluster(t, MasterConfig{
		LivenessWindow: healthWindow,
		Metrics:        reg,
	}, 3, WorkerConfig{PollInterval: 5 * time.Millisecond})

	// All three workers register and idle-poll, so they read healthy.
	waitFor(t, 2*time.Second, func() bool {
		h := master.Health()
		return h.Healthy == 3 && h.Suspect == 0 && h.Dead == 0
	}, "3 healthy workers")

	// Kill w2: its polls stop, so its heartbeats age out — one window and
	// it is suspect, three and it is dead.
	if err := workers[2].Close(); err != nil {
		t.Fatal(err)
	}
	silence(t, master, "w2", healthWindow+time.Millisecond)
	if h := master.Health(); h.Suspect != 1 || h.Healthy != 2 || h.Dead != 0 {
		t.Fatalf("after one window of silence: %+v", h)
	}
	silence(t, master, "w2", 2*healthWindow)
	if h := master.Health(); h.Dead != 1 || h.Healthy != 2 || h.Suspect != 0 {
		t.Fatalf("after three windows of silence: %+v", h)
	}

	h := master.Health()
	for _, w := range h.Workers {
		want := "healthy"
		if w.ID == "w2" {
			want = "dead"
		}
		if w.State != want {
			t.Errorf("worker %s state = %s, want %s", w.ID, w.State, want)
		}
	}

	// Exactly one transition per edge, and only for the dead worker: no
	// live worker went suspect or died, and nobody recovered.
	want := map[string]int64{
		`rpcmr_worker_transitions_total{to="suspect",worker="w2"}`: 1,
		`rpcmr_worker_transitions_total{to="dead",worker="w2"}`:    1,
	}
	if got := transitions(reg); !reflect.DeepEqual(got, want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}

	// The state gauge mirrors the machine: w2 pinned at 2 (dead).
	snap := reg.Snapshot()
	if got := snap.Gauges[`rpcmr_worker_state{worker="w2"}`]; got != 2 {
		t.Errorf("rpcmr_worker_state{worker=w2} = %v, want 2", got)
	}
	if got := snap.Gauges[`rpcmr_worker_state{worker="w0"}`]; got != 0 {
		t.Errorf("rpcmr_worker_state{worker=w0} = %v, want 0", got)
	}

	// Every worker registered once: one Health entry and one state gauge
	// each.
	if len(h.Workers) != 3 || h.Workers[0].ID != "w0" || h.Workers[1].ID != "w1" || h.Workers[2].ID != "w2" {
		t.Errorf("registered workers = %+v, want w0, w1, w2", h.Workers)
	}
	gauges := 0
	for id := range snap.Gauges {
		if strings.HasPrefix(id, "rpcmr_worker_state{") {
			gauges++
		}
	}
	if gauges != 3 {
		t.Errorf("%d rpcmr_worker_state series, want 3", gauges)
	}
}

// TestHealthRecovery brings a suspect worker back with a heartbeat and
// expects a single recovery transition.
func TestHealthRecovery(t *testing.T) {
	reg := telemetry.NewRegistry()
	master, err := NewMaster(MasterConfig{
		LivenessWindow: healthWindow,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	svc := &MasterService{m: master}
	var rr RegisterReply
	if err := svc.Register(RegisterArgs{WorkerID: "wx"}, &rr); err != nil {
		t.Fatal(err)
	}
	silence(t, master, "wx", healthWindow+time.Millisecond)
	if h := master.Health(); h.Suspect != 1 {
		t.Fatalf("after one window of silence: %+v", h)
	}

	// Heartbeat: any call recovers it. A second Register is one the master
	// answers at once; a task request would be held for half the window.
	if err := svc.Register(RegisterArgs{WorkerID: "wx"}, &rr); err != nil {
		t.Fatal(err)
	}
	h := master.Health()
	if h.Healthy != 1 || h.Suspect != 0 {
		t.Fatalf("after heartbeat: %+v", h)
	}
	want := map[string]int64{
		`rpcmr_worker_transitions_total{to="suspect",worker="wx"}`: 1,
		`rpcmr_worker_transitions_total{to="healthy",worker="wx"}`: 1,
	}
	if got := transitions(reg); !reflect.DeepEqual(got, want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
}

// TestDebugHealthEndpoint serves Master.Health through
// telemetry.MountHealth and checks the JSON shape end to end.
func TestDebugHealthEndpoint(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{
		LivenessWindow: time.Second,
	}, 2, WorkerConfig{PollInterval: 5 * time.Millisecond})
	waitFor(t, 2*time.Second, func() bool { return master.Health().Healthy == 2 }, "2 healthy workers")

	mux := http.NewServeMux()
	telemetry.MountHealth(mux, func() any { return master.Health() })
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, telemetry.HealthPath, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var h Health
	if err := json.Unmarshal(rr.Body.Bytes(), &h); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if h.Healthy != 2 || len(h.Workers) != 2 {
		t.Fatalf("health = %+v", h)
	}
	if h.Workers[0].ID != "w0" || h.Workers[1].ID != "w1" {
		t.Fatalf("workers not sorted by id: %+v", h.Workers)
	}
	if h.JobRunning {
		t.Fatalf("idle cluster reports a running job: %+v", h)
	}
}

// TestDeadHolderTaskRunsAgain: the health machine is the master's only
// failure detector. With nothing set but a 50 ms window, a worker that
// vanishes holding a task is found dead after three windows of silence, and
// the sweep that finds it puts its task back on the queue: the job returns
// the oracle's skyline well inside two seconds, with one retry and one lost
// worker, and no Health snapshot shows the dead worker holding a task.
func TestDeadHolderTaskRunsAgain(t *testing.T) {
	noLeak(t)
	ensureFrameJobs()
	const window = 50 * time.Millisecond
	// Idle workers call in at least every half window: a hold, then a poll.
	master, _, _ := newCluster(t, MasterConfig{LivenessWindow: window}, 1,
		WorkerConfig{VanishAfterTasks: 1, PollInterval: window / 2})
	// The healthy worker's stall keeps tasks on the queue for the doomed one
	// to take its second from, and makes the re-run last long enough to be
	// seen; it is shorter than a window, so the healthy worker never goes
	// suspect.
	healthy, err := NewWorker(WorkerConfig{MasterAddr: master.Addr(), ID: "healthy",
		PollInterval: window / 2, TaskStall: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthy.Close() })
	go func() { _ = healthy.Run(context.Background()) }()

	data := frameClusterData(1000, 3, 17) // 1 200 rows: two shares
	start := time.Now()
	done := make(chan outcome, 1)
	go func() {
		res, err := master.Run(context.Background(), JobSpec{Name: "skyline-frame", Reducers: frameParts}, setFrames(data, nil))
		done <- outcome{res, err}
	}()
	var out outcome
	sawDead, heldByDead := false, 0
	for running := true; running; {
		select {
		case out = <-done:
			running = false
		case <-time.After(time.Millisecond):
		}
		h := master.Health()
		for _, w := range h.Workers {
			if w.ID == "w0" && w.State == "dead" && h.JobRunning {
				sawDead = true
				heldByDead = max(heldByDead, w.InFlight)
			}
		}
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if took := time.Since(start); took >= 2*time.Second {
		t.Errorf("the job took %v, want < 2 s", took)
	}
	requireFrameOracle(t, out.res, data)
	requireOneFault(t, master)
	if !sawDead {
		t.Error("no Health snapshot of the running job showed the vanished worker dead")
	}
	if heldByDead != 0 {
		t.Errorf("a Health snapshot shows the dead worker holding %d tasks", heldByDead)
	}
	for _, w := range master.Health().Workers {
		if w.ID == "w0" && (w.State != "dead" || !strings.Contains(w.LastError, "lost (dead)")) {
			t.Errorf("vanished worker: state %s, last error %q; want dead, its task lost (dead)", w.State, w.LastError)
		}
	}
}

// TestRestartedWorkerGivesUpItsTask: a worker runs one task at a time, so
// one that asks for work — RequestTask, or Register once restarted under the
// same ID — has given up the task the master thinks it holds. The task is
// queued again at once, booked as one retry and one lost worker, with no
// silence to wait out.
func TestRestartedWorkerGivesUpItsTask(t *testing.T) {
	ensureFrameJobs()
	for _, call := range []string{"RequestTask", "Register"} {
		t.Run(call, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			master, _, _ := newCluster(t, MasterConfig{SplitSize: 100, LivenessWindow: healthWindow, Metrics: reg}, 0, WorkerConfig{})
			svc := &MasterService{m: master}
			_ = svc.Register(RegisterArgs{WorkerID: "w"}, &RegisterReply{})
			done := runAsync(master, setFrames(frameClusterData(250, 3, 16), nil)) // one share of three splits
			task := take(svc, "w")
			if task.Kind != TaskMap {
				t.Fatalf("kind %d, want the map task", task.Kind)
			}
			switch call {
			case "RequestTask":
				// Were the task not queued again, the request would be held.
				asked := time.Now()
				again := requestTask(svc, "w")
				if again.Kind != TaskMap || again.TaskID != task.TaskID || again.Attempt != task.Attempt+1 {
					t.Fatalf("kind %d, task %d attempt %d; want the task it held again", again.Kind, again.TaskID, again.Attempt)
				}
				if took := time.Since(asked); took > time.Second {
					t.Errorf("the task came back after %v", took)
				}
			case "Register":
				_ = svc.Register(RegisterArgs{WorkerID: "w"}, &RegisterReply{})
				if st := master.Status(); st.Pending != 1 {
					t.Errorf("%d tasks queued after the holder registered again, want its task", st.Pending)
				}
			}
			requireOneFault(t, master)
			if h := master.Health(); len(h.Workers) != 1 || h.Workers[0].LastError != fmt.Sprintf("map task %d lost (asked-again)", task.TaskID) {
				t.Errorf("workers %+v, want w's last error: its map task lost (asked-again)", h.Workers)
			}
			if n := reg.Counter("rpcmr_task_retries_total", telemetry.L("cause", "worker-lost"), telemetry.L("worker", "w")).Value(); n != 1 {
				t.Errorf(`rpcmr_task_retries_total{cause="worker-lost"} = %d, want 1`, n)
			}
			master.Close()
			if out := <-done; out.err == nil {
				t.Error("the job finished though its task was never reported")
			}
		})
	}
}
