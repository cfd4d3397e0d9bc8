package rpcmr

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestDebugAddrPropagation: a worker registering with a debug address
// must surface it in the master's health summary and in the federation
// target list, and a dead worker's target must turn stale.
func TestDebugAddrPropagation(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{},
		1, WorkerConfig{DebugAddr: "127.0.0.1:7777", PollInterval: time.Millisecond})

	deadline := time.Now().Add(5 * time.Second)
	for {
		h := master.Health()
		if len(h.Workers) == 1 && h.Workers[0].DebugAddr == "127.0.0.1:7777" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("debug addr never reached Health: %+v", h.Workers)
		}
		time.Sleep(time.Millisecond)
	}

	targets := master.DebugTargets()
	if len(targets) != 1 {
		t.Fatalf("targets = %+v, want one", targets)
	}
	if targets[0].ID != "w0" || targets[0].Addr != "127.0.0.1:7777" || targets[0].Stale {
		t.Fatalf("target = %+v, want live w0 at 127.0.0.1:7777", targets[0])
	}

	// Force the health machine through suspect → dead (two sequential
	// sweeps, as the background loop would): the federation target must
	// flip stale while keeping the address.
	future := time.Now().Add(1000 * time.Hour)
	master.sweepWorkerStates(future)
	master.sweepWorkerStates(future)
	targets = master.DebugTargets()
	if len(targets) != 1 || !targets[0].Stale {
		t.Fatalf("dead worker target = %+v, want stale", targets)
	}
	if targets[0].Addr != "127.0.0.1:7777" {
		t.Errorf("stale target lost its address: %+v", targets[0])
	}
}

// TestWorkerWithoutDebugAddr: registration without a debug server is
// legal; the target appears with an empty Addr so the federator lists
// the member without scraping it.
func TestWorkerWithoutDebugAddr(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{}, 1, WorkerConfig{PollInterval: time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for master.WorkerCount() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(time.Millisecond)
	}
	targets := master.DebugTargets()
	if len(targets) != 1 || targets[0].Addr != "" {
		t.Fatalf("targets = %+v, want one with empty addr", targets)
	}
}

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

// TestWorkerRegistrationEvent: a worker with an event log narrates its
// registration, carrying the master address.
func TestWorkerRegistrationEvent(t *testing.T) {
	events := telemetry.NewEventLog(16)
	master, _, _ := newCluster(t, MasterConfig{},
		1, WorkerConfig{Events: events, PollInterval: time.Millisecond})
	_ = master
	found := false
	for _, ev := range events.Events(0, 0) {
		if ev.Msg == "registered with master" {
			found = true
		}
	}
	if !found {
		t.Errorf("no registration event in %+v", events.Events(0, 0))
	}
}
