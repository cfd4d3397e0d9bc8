package rpcmr

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
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

// TestWorkerHealthStateMachine kills one worker of three and asserts it
// walks healthy → suspect → dead with exactly one transition event per
// edge, while the surviving workers stay healthy.
func TestWorkerHealthStateMachine(t *testing.T) {
	events := telemetry.NewEventLog(512)
	reg := telemetry.NewRegistry()
	master, workers, _ := newCluster(t, MasterConfig{
		LivenessWindow: healthWindow,
		Events:         events,
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

	// Exactly one transition event per edge, and only for the dead worker.
	var suspects, deads int
	for _, ev := range events.Events(0, slog.LevelDebug) {
		switch ev.Msg {
		case "worker suspect":
			if ev.Attrs["worker"] != "w2" {
				t.Errorf("live worker went suspect: %v", ev.Attrs)
			}
			suspects++
			if ev.Level != "warn" {
				t.Errorf("suspect event level = %s, want warn", ev.Level)
			}
		case "worker dead":
			if ev.Attrs["worker"] != "w2" {
				t.Errorf("live worker died: %v", ev.Attrs)
			}
			deads++
			if ev.Level != "error" {
				t.Errorf("dead event level = %s, want error", ev.Level)
			}
		case "worker recovered":
			t.Errorf("unexpected recovery event: %v", ev.Attrs)
		}
	}
	if suspects != 1 || deads != 1 {
		t.Fatalf("transition events: %d suspect, %d dead; want exactly 1 each", suspects, deads)
	}

	// The state gauge mirrors the machine: w2 pinned at 2 (dead).
	snap := reg.Snapshot()
	if got := snap.Gauges[`rpcmr_worker_state{worker="w2"}`]; got != 2 {
		t.Errorf("rpcmr_worker_state{worker=w2} = %v, want 2", got)
	}
	if got := snap.Gauges[`rpcmr_worker_state{worker="w0"}`]; got != 0 {
		t.Errorf("rpcmr_worker_state{worker=w0} = %v, want 0", got)
	}
	if got := snap.Counters[`rpcmr_worker_transitions_total{to="dead",worker="w2"}`]; got != 1 {
		t.Errorf("dead transition counter = %d, want 1", got)
	}

	// A registration event per worker.
	var registered int
	for _, ev := range events.Events(0, slog.LevelDebug) {
		if ev.Msg == "worker registered" {
			registered++
		}
	}
	if registered != 3 {
		t.Errorf("%d registration events, want 3", registered)
	}
}

// TestHealthRecovery brings a suspect worker back with a heartbeat and
// expects a single recovery transition.
func TestHealthRecovery(t *testing.T) {
	events := telemetry.NewEventLog(128)
	master, err := NewMaster(MasterConfig{
		LivenessWindow: healthWindow,
		Events:         events,
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
	var recoveries int
	for _, ev := range events.Events(0, slog.LevelDebug) {
		if ev.Msg == "worker recovered" {
			recoveries++
			if ev.Attrs["from"] != "suspect" || ev.Attrs["to"] != "healthy" {
				t.Errorf("recovery edge = %v", ev.Attrs)
			}
		}
	}
	if recoveries != 1 {
		t.Fatalf("%d recovery events, want 1", recoveries)
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
