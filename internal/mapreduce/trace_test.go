package mapreduce

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// tallyOf is the tally job over one row per word of docs.
func tallyOf(docs ...string) FrameJob {
	rows, _ := wordRows(docs)
	return FrameJob{Feed: SetRows(rows), Mapper: tallyMapper, Reducer: tallyReducer}
}

func TestTraceLifecycle(t *testing.T) {
	sink := &MemorySink{}
	cfg := Config{Name: "traced", Workers: 2, Reducers: 2, SplitSize: 1, Trace: sink}
	if _, err := RunFrames(context.Background(), cfg, tallyOf("a", "c")); err != nil {
		t.Fatal(err)
	}
	events := sink.Events()
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.Job != "traced" {
			t.Errorf("event for job %q", e.Job)
		}
	}
	if kinds["job-start"] != 1 || kinds["job-end"] != 1 {
		t.Errorf("job events = %v", kinds)
	}
	if kinds["phase-start"] != 3 {
		t.Errorf("phase-start = %d, want 3 (map, shuffle, reduce)", kinds["phase-start"])
	}
	if kinds["phase-end"] != 3 {
		t.Errorf("phase-end = %d, want 3 (map, shuffle, reduce)", kinds["phase-end"])
	}
	if kinds["task-start"] != 4 || kinds["task-end"] != 4 { // 2 map + 2 reduce
		t.Errorf("task events = %v", kinds)
	}
	// Every phase must close with a duration; shuffle is symmetric with
	// map and reduce now.
	endPhases := map[string]bool{}
	for _, e := range events {
		if e.Kind == "phase-end" {
			endPhases[e.Phase] = true
			if e.Duration <= 0 {
				t.Errorf("phase-end %s has no duration", e.Phase)
			}
		}
		if e.Kind == "task-end" {
			if e.Worker <= 0 {
				t.Errorf("task-end %s/%d has no worker slot", e.Phase, e.Task)
			}
			if e.Duration <= 0 {
				t.Errorf("task-end %s/%d has no duration", e.Phase, e.Task)
			}
			if e.Phase == "map" && e.Records != 1 { // SplitSize: 1
				t.Errorf("map task-end records = %d, want 1", e.Records)
			}
		}
	}
	for _, phase := range []string{"map", "shuffle", "reduce"} {
		if !endPhases[phase] {
			t.Errorf("no phase-end for %s", phase)
		}
	}
	// First event is job-start, last is job-end.
	if events[0].Kind != "job-start" || events[len(events)-1].Kind != "job-end" {
		t.Errorf("ordering: first %q last %q", events[0].Kind, events[len(events)-1].Kind)
	}
}

func TestTraceRetries(t *testing.T) {
	sink := &MemorySink{}
	var calls int32
	job := tallyOf("x")
	job.Mapper = func(row []float64, emit EmitPoint) error {
		if atomic.AddInt32(&calls, 1) == 1 {
			return errors.New("transient")
		}
		return tallyMapper(row, emit)
	}
	cfg := Config{Workers: 1, MaxAttempts: 2, Trace: sink}
	if _, err := RunFrames(context.Background(), cfg, job); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range sink.Events() {
		if e.Kind == "task-retry" && e.Err == "transient" {
			found = true
		}
	}
	if !found {
		t.Error("no task-retry event with the failure message")
	}
}

func TestTraceFailureEndsJob(t *testing.T) {
	sink := &MemorySink{}
	job := tallyOf("x")
	job.Mapper = func([]float64, EmitPoint) error { return errors.New("fatal") }
	cfg := Config{Trace: sink}
	if _, err := RunFrames(context.Background(), cfg, job); err == nil {
		t.Fatal("job should fail")
	}
	events := sink.Events()
	last := events[len(events)-1]
	if last.Kind != "job-end" || last.Err == "" {
		t.Errorf("last event = %+v, want failing job-end", last)
	}
}

func TestJSONSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONSink(&buf)
	cfg := Config{Name: "jsonjob", Workers: 1, Trace: sink}
	if _, err := RunFrames(context.Background(), cfg, tallyOf("a")); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 5 {
		t.Fatalf("only %d JSON lines", len(lines))
	}
	for _, l := range lines {
		var e Event
		if err := json.Unmarshal([]byte(l), &e); err != nil {
			t.Fatalf("bad JSON line %q: %v", l, err)
		}
		if e.Job != "jsonjob" {
			t.Errorf("line for job %q", e.Job)
		}
	}
}

func TestNoTraceNoPanic(t *testing.T) {
	cfg := Config{} // Trace nil
	if _, err := RunFrames(context.Background(), cfg, tallyOf("a")); err != nil {
		t.Fatal(err)
	}
}
