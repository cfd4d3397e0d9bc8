package rpcmr

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestWorkerSideTaskMetrics: a worker given its own registry must count
// and time the tasks it executes, labeled by kind.
func TestWorkerSideTaskMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 1},
		1, WorkerConfig{Metrics: reg, PollInterval: time.Millisecond})
	res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, setFrames(wcInput, nil))
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, res)

	maps := reg.Counter("rpcmr_worker_tasks_total",
		telemetry.L("kind", "map"), telemetry.L("result", "ok")).Value()
	if maps != 1 {
		t.Errorf("map task counter = %d, want 1: the one worker's share", maps)
	}
	reduces := reg.Counter("rpcmr_worker_tasks_total",
		telemetry.L("kind", "reduce"), telemetry.L("result", "ok")).Value()
	if reduces != 2 {
		t.Errorf("reduce task counter = %d, want 2", reduces)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`rpcmr_worker_task_seconds_count{kind="map"} 1`,
		`rpcmr_worker_task_seconds_count{kind="reduce"} 2`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// TestMasterClusterGauges: with a metrics registry, the master's scrape
// hook publishes queue and per-worker gauges plus the cluster-wide task
// counter consumed by the stall rule and skytop.
func TestMasterClusterGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 1, Metrics: reg},
		2, WorkerConfig{PollInterval: time.Millisecond})
	if _, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, setFrames(wcInput, nil)); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	// The job is over: running gauge reads 0 but the per-worker ledgers
	// persist, and done counts across both workers sum to all tasks.
	for _, want := range []string{
		"rpcmr_job_running 0",
		"rpcmr_queue_depth 0",
		`rpcmr_worker_tasks_done{worker="w0"}`,
		`rpcmr_worker_tasks_done{worker="w1"}`,
		"rpcmr_tasks_done_total 4", // two shares + two reduce tasks
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestWorkerRegistrationEvent: a worker's registration is on the master's
// Health as soon as NewWorker returns — a healthy worker under its own id,
// with nothing done and no error.
func TestWorkerRegistrationEvent(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{},
		1, WorkerConfig{PollInterval: time.Millisecond})
	h := master.Health()
	if len(h.Workers) != 1 || h.Healthy != 1 {
		t.Fatalf("health = %+v, want one healthy worker", h)
	}
	if w := h.Workers[0]; w.ID != "w0" || w.State != "healthy" || w.TasksDone != 0 || w.LastError != "" {
		t.Errorf("registered worker = %+v, want a healthy w0 with nothing done", w)
	}
}
