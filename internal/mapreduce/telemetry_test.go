package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestEngineSpans: with a tracer in the context, a job must record a
// root span with map/shuffle/reduce children and per-task spans
// tracked by worker slot.
func TestEngineSpans(t *testing.T) {
	tr := telemetry.NewTracer()
	ctx := telemetry.WithTracer(context.Background(), tr)
	cfg := Config{Name: "spanned", Workers: 3, Reducers: 2}
	if _, err := RunFrames(ctx, cfg, tallyOf("a", "c", "e")); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	byName := map[string][]telemetry.SpanData{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	jobs := byName["mr-job:spanned"]
	if len(jobs) != 1 {
		t.Fatalf("job spans = %d, want 1", len(jobs))
	}
	root := jobs[0]
	if root.Parent != 0 {
		t.Error("job span has a parent")
	}
	for _, phase := range []string{"map", "shuffle", "reduce"} {
		ps := byName[phase]
		if len(ps) != 1 {
			t.Fatalf("%s spans = %d, want 1", phase, len(ps))
		}
		if ps[0].Parent != root.ID {
			t.Errorf("%s span not a child of the job span", phase)
		}
	}
	if len(byName["map-task"]) != 3 {
		t.Errorf("map-task spans = %d, want 3", len(byName["map-task"]))
	}
	for _, ts := range byName["map-task"] {
		if ts.Parent != byName["map"][0].ID {
			t.Error("map-task span not a child of the map phase span")
		}
		if ts.Track < 1 || ts.Track > 3 {
			t.Errorf("map-task track = %d, want a 1-based worker slot", ts.Track)
		}
	}
	if len(byName["reduce-task"]) != 2 {
		t.Errorf("reduce-task spans = %d, want 2", len(byName["reduce-task"]))
	}
}

// TestTraceFailureEndsJob: a job whose map task fails still ends its job
// span, and the span carries the error.
func TestTraceFailureEndsJob(t *testing.T) {
	tr := telemetry.NewTracer()
	ctx := telemetry.WithTracer(context.Background(), tr)
	job := tallyOf("x")
	job.Mapper = func([]float64, EmitPoint) error { return errors.New("fatal") }
	if _, err := RunFrames(ctx, Config{Name: "failing"}, job); err == nil {
		t.Fatal("job should fail")
	}
	var ended bool
	for _, s := range tr.Spans() {
		if s.Name != "mr-job:failing" {
			continue
		}
		ended = true
		var msg any
		for _, a := range s.Attrs {
			if a.Key == "error" {
				msg = a.Value
			}
		}
		if msg == nil || !strings.Contains(fmt.Sprint(msg), "fatal") {
			t.Errorf("job span attrs %v, want the task's error", s.Attrs)
		}
	}
	if !ended {
		t.Errorf("no ended job span in %+v", tr.Spans())
	}
}

// TestEngineMetricsBridge: with a registry configured, framework
// counters and phase timings must land in mr_* series.
func TestEngineMetricsBridge(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := Config{Name: "metered", Workers: 2, Metrics: reg}
	res, err := RunFrames(context.Background(), cfg, tallyOf("x", "z"))
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParsePrometheus(sb.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if got := samples[`mr_map_records_in_total{job="metered"}`]; got != 2 {
		t.Errorf("bridged map-in = %v, want 2", got)
	}
	if got := samples[`mr_jobs_total{job="metered"}`]; got != 1 {
		t.Errorf("mr_jobs_total = %v, want 1", got)
	}
	if got := samples[`mr_phase_seconds_count{job="metered",phase="map"}`]; got != 1 {
		t.Errorf("phase histogram count = %v, want 1", got)
	}
	// Bridged values must equal the job's own counters.
	if got := samples[`mr_shuffle_records_total{job="metered"}`]; int64(got) != res.Counters.Get(CounterShuffle) {
		t.Errorf("bridged shuffle = %v, counters say %d", got, res.Counters.Get(CounterShuffle))
	}
	if res.Counters.Get(CounterShuffleBytes) <= 0 {
		t.Error("no shuffle bytes counted")
	}
}

// TestTelemetryOffNoAllocObservable: nil Metrics and no tracer must not
// record anything anywhere (the default-off contract for library code).
func TestTelemetryOffIsInert(t *testing.T) {
	cfg := Config{Name: "dark", Workers: 1}
	if _, err := RunFrames(context.Background(), cfg, tallyOf("a")); err != nil {
		t.Fatal(err)
	}
}
