package mapreduce

import (
	"context"
	"errors"
	"log/slog"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// tallyOf is the tally job over one row per word of docs.
func tallyOf(docs ...string) FrameJob {
	rows, _ := wordRows(docs)
	return FrameJob{Feed: SetRows(rows), Mapper: tallyMapper, Folder: tallyFolder}
}

// TestTraceLifecycle: a job narrates itself into Config.Events in the
// words rpcmr's master uses for a cluster job — one start and one end,
// a map and a reduce phase (the shuffle is an attribute of the reduce
// phase's start, not a phase), nothing per task.
func TestTraceLifecycle(t *testing.T) {
	log := telemetry.NewEventLog(64)
	cfg := Config{Name: "traced", Workers: 2, Reducers: 2, Events: log}
	if _, err := RunFrames(context.Background(), cfg, tallyOf("a", "c")); err != nil {
		t.Fatal(err)
	}
	events := log.Events(0, slog.LevelDebug)
	var msgs []string
	for _, e := range events {
		msgs = append(msgs, e.Msg)
		if e.Attrs["job"] != "traced" {
			t.Errorf("event %q for job %v", e.Msg, e.Attrs["job"])
		}
		if e.Level != "info" {
			t.Errorf("event %q at level %s", e.Msg, e.Level)
		}
	}
	want := []string{"job start", "phase start", "phase end", "phase start", "phase end", "job end"}
	if !reflect.DeepEqual(msgs, want) {
		t.Fatalf("narration = %q, want %q", msgs, want)
	}
	if got := events[0].Attrs; got["records"] != 2.0 || got["reducers"] != 2.0 {
		t.Errorf("job start attrs = %v, want 2 records, 2 reducers", got)
	}
	for i, phase := range []string{"map", "map", "reduce", "reduce"} {
		e := events[i+1]
		if e.Attrs["phase"] != phase {
			t.Errorf("event %d %q is for phase %v, want %s", i+1, e.Msg, e.Attrs["phase"], phase)
		}
		if e.Msg == "phase start" && e.Attrs["tasks"] != 2.0 {
			t.Errorf("%s phase start attrs = %v, want 2 tasks", phase, e.Attrs)
		}
		if secs, _ := e.Attrs["seconds"].(float64); e.Msg == "phase end" && secs <= 0 {
			t.Errorf("%s phase end has no duration: %v", phase, e.Attrs)
		}
	}
	if _, ok := events[3].Attrs["shuffle_seconds"]; !ok {
		t.Errorf("reduce phase start attrs = %v, want shuffle_seconds", events[3].Attrs)
	}
	if secs, _ := events[5].Attrs["seconds"].(float64); secs <= 0 {
		t.Errorf("job end has no duration: %v", events[5].Attrs)
	}
}

func TestTraceFailureEndsJob(t *testing.T) {
	log := telemetry.NewEventLog(64)
	job := tallyOf("x")
	job.Mapper = func([]float64, EmitPoint) error { return errors.New("fatal") }
	if _, err := RunFrames(context.Background(), Config{Events: log}, job); err == nil {
		t.Fatal("job should fail")
	}
	events := log.Events(0, slog.LevelDebug)
	last := events[len(events)-1]
	if last.Msg != "job failed" || last.Level != "error" || last.Attrs["result"] != "error" || last.Attrs["err"] == nil {
		t.Errorf("last event = %+v, want a failing job's error event", last)
	}
}

func TestNoTraceNoPanic(t *testing.T) {
	cfg := Config{} // Events nil
	if _, err := RunFrames(context.Background(), cfg, tallyOf("a")); err != nil {
		t.Fatal(err)
	}
}
