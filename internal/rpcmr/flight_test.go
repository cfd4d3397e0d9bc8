package rpcmr

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/telemetry"
)

// ensureFlightJobs adds the slow-tail job used by the straggler test.
// Separate Once from ensureJobs, which it calls first (ensureJobs owns
// resetRegistryForTest, so ordering matters).
var flightJobsOnce sync.Once

func ensureFlightJobs() {
	ensureJobs()
	flightJobsOnce.Do(func() {
		// slowtail: each row is a sleep duration in milliseconds, so the
		// input controls the task-duration distribution exactly.
		RegisterJob("slowtail", func(params []byte) (Job, error) {
			return tallyJob(func(row []float64) error {
				time.Sleep(time.Duration(row[0]) * time.Millisecond)
				return nil
			}), nil
		})
	})
}

// spanIndex groups a tracer's spans for assertions: name → spans, plus
// an id → span lookup.
type spanIndex struct {
	byName map[string][]telemetry.SpanData
	byID   map[uint64]telemetry.SpanData
}

func indexSpans(tr *telemetry.Tracer) spanIndex {
	idx := spanIndex{
		byName: map[string][]telemetry.SpanData{},
		byID:   map[uint64]telemetry.SpanData{},
	}
	for _, s := range tr.Spans() {
		idx.byName[s.Name] = append(idx.byName[s.Name], s)
		idx.byID[s.ID] = s
	}
	return idx
}

func attrOf(s telemetry.SpanData, key string) (interface{}, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// TestStitchedTraceThreeWorkers: a 3-worker job with tracing on must
// yield ONE trace holding the master's job span AND every worker's task
// spans, each attached under the job span, with per-worker track rows.
// The slowtail job (a share of two 30 ms rows per map task) keeps all three
// workers busy so the trace provably spans several processes.
func TestStitchedTraceThreeWorkers(t *testing.T) {
	ensureFlightJobs()
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 1}, 3,
		WorkerConfig{PollInterval: time.Millisecond})
	tr := telemetry.NewTracer()
	ctx := telemetry.WithTracer(context.Background(), tr)
	input := tallyRows(30, 30, 30, 30, 30, 30)
	if _, err := master.Run(ctx, JobSpec{Name: "slowtail", Reducers: 2}, setFrames(input, nil)); err != nil {
		t.Fatal(err)
	}

	idx := indexSpans(tr)
	jobs := idx.byName["rpcmr-job:slowtail"]
	if len(jobs) != 1 {
		t.Fatalf("job spans = %d, want 1", len(jobs))
	}
	job := jobs[0]
	if got := len(idx.byName["map-task"]); got != 3 {
		t.Errorf("map-task spans = %d, want one per worker's share, 3", got)
	}
	if got := len(idx.byName["reduce-task"]); got != 2 {
		t.Errorf("reduce-task spans = %d, want 2", got)
	}
	workers := map[interface{}]bool{}
	for _, name := range []string{"map-task", "reduce-task"} {
		for _, s := range idx.byName[name] {
			if s.Parent != job.ID {
				t.Errorf("%s (task %v) parent = %d, want job span %d",
					name, s.Attrs, s.Parent, job.ID)
			}
			if s.Track < 1 {
				t.Errorf("%s on track %d, want a per-worker row >= 1", name, s.Track)
			}
			if w, ok := attrOf(s, "worker"); ok {
				workers[w] = true
			}
		}
	}
	if len(workers) < 2 {
		t.Errorf("task spans from %d worker(s), want >= 2 of the 3", len(workers))
	}
}

// TestRetriedTaskSpansOnce: when a worker vanishes holding a task and the
// task is re-run elsewhere, the stitched trace must contain exactly one
// span per task — the retried task must not appear twice. Four idle
// workers make six one-row shares, and map tasks sleep 40 ms, so the flaky
// worker reliably receives (and dies holding) a second task while others
// are still pending.
func TestRetriedTaskSpansOnce(t *testing.T) {
	ensureFlightJobs()
	mcfg := MasterConfig{SplitSize: 1, LivenessWindow: 70 * time.Millisecond}
	master, _, _ := newCluster(t, mcfg, 1,
		WorkerConfig{VanishAfterTasks: 1, PollInterval: time.Millisecond})
	idleWorkers(t, master, 4)

	healthy, err := NewWorker(WorkerConfig{
		MasterAddr:   master.Addr(),
		ID:           "healthy",
		PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthy.Close() })
	go func() { _ = healthy.Run(context.Background()) }()

	tr := telemetry.NewTracer()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	input := tallyRows(40, 40, 40, 40, 40, 40)
	if _, err := master.Run(telemetry.WithTracer(ctx, tr),
		JobSpec{Name: "slowtail", Reducers: 2}, setFrames(input, nil)); err != nil {
		t.Fatal(err)
	}
	if master.Status().TaskRetries == 0 {
		t.Fatal("no retry happened; the regression scenario did not trigger")
	}

	idx := indexSpans(tr)
	for _, kind := range []string{"map-task", "reduce-task"} {
		perTask := map[interface{}]int{}
		for _, s := range idx.byName[kind] {
			id, ok := attrOf(s, "task")
			if !ok {
				t.Fatalf("%s span without task attr: %v", kind, s.Attrs)
			}
			perTask[id]++
		}
		for id, n := range perTask {
			if n != 1 {
				t.Errorf("%s %v appears %d times in the stitched trace, want exactly 1", kind, id, n)
			}
		}
	}
	if got := len(idx.byName["map-task"]); got != 6 {
		t.Errorf("map-task spans = %d, want 6 (one per task, retries deduplicated)", got)
	}
}

// TestStragglerDetection: with three ~5 ms tasks establishing the phase
// median, a 400 ms tail task must be flagged — job counter, per-worker
// counter, and span attribute. Three idle workers make the four rows four
// shares, which the one working worker runs in turn.
func TestStragglerDetection(t *testing.T) {
	ensureFlightJobs()
	reg := telemetry.NewRegistry()
	master, err := NewMaster(MasterConfig{SplitSize: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	w, err := NewWorker(WorkerConfig{
		MasterAddr:   master.Addr(),
		ID:           "w0",
		PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	idleWorkers(t, master, 3)
	go func() { _ = w.Run(context.Background()) }()

	tr := telemetry.NewTracer()
	input := tallyRows(5, 5, 5, 400)
	res, err := master.Run(telemetry.WithTracer(context.Background(), tr), JobSpec{Name: "slowtail", Reducers: 1}, setFrames(input, nil))
	if err != nil {
		t.Fatal(err)
	}

	if got := res.Counters.Snapshot()[mapreduce.CounterStragglers]; got != 1 {
		t.Fatalf("%s = %d, want exactly 1 (the 400ms tail)", mapreduce.CounterStragglers, got)
	}

	samples, err := telemetry.ParsePrometheus(promText(t, reg))
	if err != nil {
		t.Fatal(err)
	}
	if samples[`rpcmr_stragglers_total{worker="w0"}`] != 1 {
		t.Errorf("rpcmr_stragglers_total = %v, want 1", samples[`rpcmr_stragglers_total{worker="w0"}`])
	}

	marked := 0
	for _, s := range tr.Spans() {
		if v, ok := attrOf(s, "straggler"); ok && v == true {
			marked++
			if s.Name != "map-task" || s.Duration < 350*time.Millisecond {
				t.Errorf("straggler-marked span %s of %v, want the slow map task", s.Name, s.Duration)
			}
		}
	}
	if marked != 1 {
		t.Errorf("straggler-marked task spans = %d, want 1", marked)
	}
}

// TestUntracedRunShipsNoSpans: with no tracer in the Run context the
// workers must not fabricate spans (TraceID 0 disables the worker path).
func TestUntracedRunShipsNoSpans(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 1}, 2,
		WorkerConfig{PollInterval: time.Millisecond})
	res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, setFrames(wcInput, nil))
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, res)
}
