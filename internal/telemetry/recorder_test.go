package telemetry

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRecorderNilSafety(t *testing.T) {
	var r *Recorder
	r.RecordRun(Report{
		Partitions:    []PartitionRecord{{Partition: 0, InputRecords: 10, ShuffleBytes: 100, LocalSkyline: 3, GlobalSurvivors: 2}},
		GlobalSkyline: 7, TaskRetries: 1, WorkerFailures: 2,
	})
	r.Publish(NewRegistry())
	if rep := r.Report(); rep != nil {
		t.Errorf("nil recorder Report = %+v, want nil", rep)
	}
}

func TestRecorderOptimality(t *testing.T) {
	r := NewRecorder("test")
	// p0: 4 local, 2 survive → 0.5. p1: 2 local, 2 survive → 1.0.
	// p2: empty local skyline → excluded from the mean. p3: untouched.
	// Handed over out of order: the report sorts by id.
	r.RecordRun(Report{
		Partitions: []PartitionRecord{
			{Partition: 3},
			{Partition: 1, LocalSkyline: 2, GlobalSurvivors: 2},
			{Partition: 0, LocalSkyline: 4, GlobalSurvivors: 2},
			{Partition: 2},
		},
		GlobalSkyline: 4,
	})

	rep := r.Report()
	if len(rep.Partitions) != 4 {
		t.Fatalf("partitions = %d, want all 4 planned", len(rep.Partitions))
	}
	for i, p := range rep.Partitions {
		if p.Partition != i {
			t.Errorf("partition[%d].Partition = %d, want sorted ids", i, p.Partition)
		}
	}
	if got := rep.Partitions[0].Optimality; got != 0.5 {
		t.Errorf("p0 optimality = %v, want 0.5", got)
	}
	if got := rep.Partitions[1].Optimality; got != 1.0 {
		t.Errorf("p1 optimality = %v, want 1.0", got)
	}
	if got := rep.Partitions[2].Optimality; got != 0 {
		t.Errorf("empty partition optimality = %v, want 0", got)
	}
	// Eq. (5): mean over non-empty partitions only.
	if got := rep.Optimality; math.Abs(got-0.75) > 1e-12 {
		t.Errorf("job optimality = %v, want 0.75", got)
	}
	if rep.GlobalSkyline != 4 {
		t.Errorf("global skyline = %d, want 4", rep.GlobalSkyline)
	}
}

func TestRecorderSkew(t *testing.T) {
	r := NewRecorder("skew")
	var run Report
	for id, load := range []int64{1, 2, 3, 4} {
		run.Partitions = append(run.Partitions, PartitionRecord{Partition: id, InputRecords: load, ShuffleBytes: load * 10})
	}
	r.RecordRun(run)
	rep := r.Report()
	if rep.Skew.MaxLoad != 4 {
		t.Errorf("max load = %d, want 4", rep.Skew.MaxLoad)
	}
	if math.Abs(rep.Skew.MeanLoad-2.5) > 1e-12 {
		t.Errorf("mean load = %v, want 2.5", rep.Skew.MeanLoad)
	}
	if math.Abs(rep.Skew.Imbalance-1.6) > 1e-12 {
		t.Errorf("imbalance = %v, want 1.6", rep.Skew.Imbalance)
	}
	// Gini of [1,2,3,4] via mean absolute difference:
	// ΣΣ|xi−xj| = 2·(1+2+3+1+2+1) = 20; G = 20/(2·16·2.5) = 0.25.
	if math.Abs(rep.Skew.Gini-0.25) > 1e-12 {
		t.Errorf("gini = %v, want 0.25", rep.Skew.Gini)
	}
	if rep.Partitions[3].ShuffleBytes != 40 {
		t.Errorf("p3 shuffle bytes = %d, want 40", rep.Partitions[3].ShuffleBytes)
	}
}

func TestRecorderSkewUniformAndEmpty(t *testing.T) {
	r := NewRecorder("uniform")
	r.RecordRun(Report{Partitions: []PartitionRecord{
		{Partition: 0, InputRecords: 5}, {Partition: 1, InputRecords: 5}, {Partition: 2, InputRecords: 5}}})
	rep := r.Report()
	if rep.Skew.Gini != 0 {
		t.Errorf("uniform gini = %v, want 0", rep.Skew.Gini)
	}
	if rep.Skew.Imbalance != 1 {
		t.Errorf("uniform imbalance = %v, want 1", rep.Skew.Imbalance)
	}
	if rep := NewRecorder("empty").Report(); rep.Skew != (Skew{}) {
		t.Errorf("empty skew = %+v, want zero", rep.Skew)
	}
}

// TestRecorderStragglersAndRetries: the run's counts are what RecordRun
// is handed; the rollups are the recorder's own, whatever the caller put
// in those fields.
func TestRecorderStragglersAndRetries(t *testing.T) {
	r := NewRecorder("counts")
	r.RecordRun(Report{Job: "not this one", Stragglers: 2, TaskRetries: 3, WorkerFailures: 1,
		Optimality: 7, MergeRounds: 9, Skew: Skew{Gini: 5}})
	rep := r.Report()
	if rep.Stragglers != 2 || rep.TaskRetries != 3 || rep.WorkerFailures != 1 {
		t.Errorf("stragglers/retries/failures = %d/%d/%d, want 2/3/1", rep.Stragglers, rep.TaskRetries, rep.WorkerFailures)
	}
	if rep.Job != "counts" || rep.Optimality != 0 || rep.MergeRounds != 0 || rep.Skew != (Skew{}) {
		t.Errorf("job %q, optimality %v, merge rounds %d, skew %+v; want the recorder's own", rep.Job, rep.Optimality, rep.MergeRounds, rep.Skew)
	}
}

// TestRecorderDurationFixedAtRecordRun: a finished run's duration is the
// run's, not the time since it started — a lingering master serves the
// same record on every request.
func TestRecorderDurationFixedAtRecordRun(t *testing.T) {
	r := NewRecorder("fixed")
	time.Sleep(5 * time.Millisecond)
	if d := r.Report().DurationSeconds; d < 0.005 {
		t.Errorf("running job's duration %v s, want the elapsed time", d)
	}
	r.RecordRun(Report{})
	first := r.Report().DurationSeconds
	time.Sleep(20 * time.Millisecond)
	if second := r.Report().DurationSeconds; second != first {
		t.Errorf("duration moved from %v to %v s after the run ended", first, second)
	}
}

func TestRecorderPublish(t *testing.T) {
	r := NewRecorder("pub")
	r.RecordRun(Report{
		Partitions: []PartitionRecord{
			{Partition: 0, InputRecords: 10, LocalSkyline: 4, GlobalSurvivors: 1},
			{Partition: 1, InputRecords: 30},
		},
		Stragglers:       1,
		MergeRoundBytes:  []int64{640, 320},
		ReducerPeakBytes: 4096,
	})
	reg := NewRegistry()
	r.Publish(reg)
	snap := reg.Snapshot()
	if snap.Gauges["skyline_load_max"] != 30 {
		t.Errorf("skyline_load_max = %v", snap.Gauges["skyline_load_max"])
	}
	if snap.Gauges["skyline_local_optimality"] != 0.25 {
		t.Errorf("skyline_local_optimality = %v", snap.Gauges["skyline_local_optimality"])
	}
	if snap.Gauges[`skyline_partition_optimality{partition="0"}`] != 0.25 {
		t.Errorf("per-partition gauge missing: %v", snap.Gauges)
	}
	if snap.Gauges["skyline_stragglers"] != 1 {
		t.Errorf("skyline_stragglers = %v, want 1", snap.Gauges["skyline_stragglers"])
	}
	if snap.Gauges["skyline_merge_rounds"] != 2 || snap.Gauges["skyline_reducer_peak_bytes"] != 4096 {
		t.Errorf("merge rounds / reducer peak gauges = %v / %v, want 2 / 4096",
			snap.Gauges["skyline_merge_rounds"], snap.Gauges["skyline_reducer_peak_bytes"])
	}
	rep := r.Report()
	if rep.MergeRounds != 2 || len(rep.MergeRoundBytes) != 2 || rep.MergeRoundBytes[0] != 640 || rep.ReducerPeakBytes != 4096 {
		t.Errorf("report merge rounds %d %v, reducer peak %d", rep.MergeRounds, rep.MergeRoundBytes, rep.ReducerPeakBytes)
	}
}

func TestMountFlightRecorder(t *testing.T) {
	var rec *Recorder
	mux := http.NewServeMux()
	MountFlightRecorder(mux, func() *Recorder { return rec })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// No recorder yet → 404.
	resp, err := http.Get(srv.URL + FlightRecorderPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status with nil recorder = %d, want 404", resp.StatusCode)
	}

	rec = NewRecorder("http-job")
	rec.RecordRun(Report{Partitions: []PartitionRecord{
		{Partition: 0, LocalSkyline: 3, GlobalSurvivors: 3}, {Partition: 1}}})
	resp, err = http.Get(srv.URL + FlightRecorderPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("flight JSON does not decode: %v", err)
	}
	if rep.Job != "http-job" || len(rep.Partitions) != 2 {
		t.Errorf("decoded report = %+v", rep)
	}

	// POST is rejected.
	resp, err = http.Post(srv.URL+FlightRecorderPath, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
}

// TestTracerImport: importing a worker batch must remap IDs to fresh
// local ones, keep intra-batch parent links, attach batch roots under
// the given parent, and preserve tracks and attrs.
func TestTracerImport(t *testing.T) {
	master := NewTracer()
	// Local span occupies ID 1, so worker IDs would collide unremapped.
	_, s := StartSpan(WithTracer(context.Background(), master), "job")
	s.End()

	worker := []SpanData{
		{ID: 1, Parent: 0, Name: "map-task", Track: 3, Attrs: []Attr{A("task", 7)}},
		{ID: 2, Parent: 1, Name: "inner", Track: 3},
	}
	master.Import(s.ID(), worker)

	spans := master.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	ids := map[uint64]bool{}
	for _, sd := range spans {
		byName[sd.Name] = sd
		if ids[sd.ID] {
			t.Fatalf("duplicate span ID %d after import", sd.ID)
		}
		ids[sd.ID] = true
	}
	task := byName["map-task"]
	if task.Parent != s.ID() {
		t.Errorf("batch root parent = %d, want job span %d", task.Parent, s.ID())
	}
	if task.Track != 3 {
		t.Errorf("track not preserved: %d", task.Track)
	}
	if len(task.Attrs) != 1 || task.Attrs[0].Key != "task" {
		t.Errorf("attrs not preserved: %v", task.Attrs)
	}
	inner := byName["inner"]
	if inner.Parent != task.ID {
		t.Errorf("intra-batch parent link broken: inner.Parent = %d, task.ID = %d", inner.Parent, task.ID)
	}
}

func TestTracerImportEmptyAndNil(t *testing.T) {
	var nilT *Tracer
	nilT.Import(1, []SpanData{{ID: 1}}) // must not panic
	tr := NewTracer()
	tr.Import(1, nil)
	if n := len(tr.Spans()); n != 0 {
		t.Errorf("spans after empty import = %d", n)
	}
}
