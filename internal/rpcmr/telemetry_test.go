package rpcmr

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestLivenessWindowConfigurable: with a tiny window, a worker that has
// not polled recently must drop out of LiveWorkers while still being
// counted as registered.
func TestLivenessWindowConfigurable(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{LivenessWindow: time.Nanosecond},
		1, WorkerConfig{PollInterval: time.Hour})
	// The worker registered and then went idle for an hour; with a 1ns
	// window it must read as registered-but-not-live almost immediately.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := master.Status()
		if st.Workers == 1 && st.LiveWorkers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status never showed a stale worker: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatusCountsRetries: a deterministically failing job must leave a
// cumulative TaskRetries trail in Status, with WorkerFailures flat
// (the worker kept reporting in — flaky job, not a dead worker).
func TestStatusCountsRetries(t *testing.T) {
	reg := telemetry.NewRegistry()
	master, _, _ := newCluster(t, MasterConfig{Metrics: reg}, 1, WorkerConfig{PollInterval: time.Millisecond})
	master.maxAttempts = 2
	if _, err := master.Run(context.Background(), JobSpec{Name: "always-fails", Reducers: 1}, setFrames(wcInput, nil)); err == nil {
		t.Fatal("always-fails should fail the job")
	}
	st := master.Status()
	if st.TaskRetries == 0 {
		t.Error("TaskRetries = 0 after a failing job")
	}
	if st.WorkerFailures != 0 {
		t.Errorf("WorkerFailures = %d, want 0 (worker reported errors, never vanished)", st.WorkerFailures)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `rpcmr_task_retries_total{cause="report",worker="w0"}`) {
		t.Errorf("no retry counter in exposition:\n%s", sb.String())
	}
}

// TestMasterTelemetry: a successful run with metrics + tracing on must
// produce per-worker task latency histograms and a job span with
// map/shuffle/reduce children.
func TestMasterTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 1, Metrics: reg},
		2, WorkerConfig{PollInterval: time.Millisecond})
	tr := telemetry.NewTracer()
	ctx := telemetry.WithTracer(context.Background(), tr)
	if _, err := master.Run(ctx, JobSpec{Name: "wordcount", Reducers: 2}, setFrames(wcInput, nil)); err != nil {
		t.Fatal(err)
	}

	samples, err := telemetry.ParsePrometheus(promText(t, reg))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if samples[`rpcmr_jobs_total{job="wordcount",result="ok"}`] != 1 {
		t.Errorf("rpcmr_jobs_total missing: %v", samples)
	}
	taskObs := 0.0
	for name, v := range samples {
		if strings.HasPrefix(name, "rpcmr_task_seconds_count{") {
			taskObs += v
		}
	}
	if int(taskObs) != 2+2 { // a map task per worker's share + 2 reduce tasks
		t.Errorf("task latency observations = %v, want %d", taskObs, 2+2)
	}

	byName := map[string]telemetry.SpanData{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	job, ok := byName["rpcmr-job:wordcount"]
	if !ok {
		t.Fatalf("no job span; spans = %v", byName)
	}
	for _, phase := range []string{"map", "shuffle", "reduce"} {
		s, ok := byName[phase]
		if !ok {
			t.Fatalf("no %s span", phase)
		}
		if s.Parent != job.ID {
			t.Errorf("%s span not a child of the job span", phase)
		}
	}
}

func promText(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
