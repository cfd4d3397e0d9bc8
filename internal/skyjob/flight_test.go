package skyjob

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/telemetry"
	"repro/internal/telemetry/timeseries"
)

// TestClusterFlightRecord: a recorded, traced cluster run must produce a
// flight report that covers every planned partition, reproduces the
// pipeline's own Eq. (5) optimality, and publishes the skew rollups into
// the master's /metrics exposition, beside task spans of both kinds — and,
// under a reducer budget, what the workers' folds and the master's merge
// rounds cost, in the report and on the gauge skymaster's reducer-budget
// rule watches. With one worker stalling every task, the stragglers it
// makes count the same on every surface that reports them.
func TestClusterFlightRecord(t *testing.T) {
	t.Run("unbudgeted", func(t *testing.T) { testClusterFlightRecord(t, 0, 0) })
	t.Run("budget 4 KiB", func(t *testing.T) { testClusterFlightRecord(t, 4<<10, 0) })
	t.Run("one stalled worker", func(t *testing.T) { testClusterFlightRecord(t, 0, 300*time.Millisecond) })
}

func testClusterFlightRecord(t *testing.T, budget int64, stall time.Duration) {
	reg := telemetry.NewRegistry()
	master := startMeteredCluster(t, 3, reg, stall)
	rec, tr := telemetry.NewRecorder("skyline:MR-Angle"), telemetry.NewTracer()
	ctx := telemetry.WithTracer(telemetry.WithRecorder(context.Background(), rec), tr)
	data := uniformSet(11, 900, 3)
	if budget > 0 {
		data = uniformSet(11, 6000, 5) // local skylines that outgrow the budget
	}
	// The angular partitioner may round the requested 6 up to a regular
	// split product; the report must cover the count actually planned.
	spec, err := SpecFor(data, partition.Angular, 6)
	if err != nil {
		t.Fatal(err)
	}
	if budget > 0 {
		spec.ReducerBudgetBytes, spec.Codec = budget, points.FrameAuto
	}
	// Job 1's reduce phase is the one with tasks enough for the straggler
	// detector's median: give it six, and the stalled worker takes one.
	reducers := 2
	if stall > 0 {
		reducers = 6
	}
	res, err := ComputeSpec(ctx, master, data, spec, reducers)
	if err != nil {
		t.Fatal(err)
	}
	part, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	partitions := part.Partitions()

	rep := rec.Report()
	if len(rep.Partitions) != partitions {
		t.Fatalf("report covers %d partitions, want %d", len(rep.Partitions), partitions)
	}
	if math.Abs(rep.Optimality-res.Optimality()) > 1e-9 {
		t.Errorf("recorder optimality %.12f != pipeline optimality %.12f",
			rep.Optimality, res.Optimality())
	}
	if rep.GlobalSkyline != len(res.Skyline) {
		t.Errorf("global skyline = %d, want %d", rep.GlobalSkyline, len(res.Skyline))
	}
	for _, p := range rep.Partitions {
		if got := len(res.LocalSkylines[p.Partition]); got != p.LocalSkyline {
			t.Errorf("p%d local skyline = %d, result says %d", p.Partition, p.LocalSkyline, got)
		}
		if p.GlobalSurvivors > p.LocalSkyline {
			t.Errorf("p%d survivors %d > local skyline %d", p.Partition, p.GlobalSurvivors, p.LocalSkyline)
		}
	}
	if budget > 0 {
		// The reduce tasks' and the blocked round's tasks' tallies cross the
		// wire: the merge ran on the workers.
		if rep.ReducerPeakBytes <= 0 || rep.MergeRounds < 1 || len(rep.MergeRoundBytes) != rep.MergeRounds {
			t.Errorf("budgeted report: reducer_peak_bytes %d, merge_rounds %d, merge_round_bytes %v; want all reported",
				rep.ReducerPeakBytes, rep.MergeRounds, rep.MergeRoundBytes)
		}
		if st := res.Stats; st.MergePasses < 1 || st.MergeRounds != rep.MergeRounds || st.ReducerPeakBytes != rep.ReducerPeakBytes {
			t.Errorf("budgeted stats: MergePasses %d, MergeRounds %d, ReducerPeakBytes %d; report says %d rounds, peak %d",
				st.MergePasses, st.MergeRounds, st.ReducerPeakBytes, rep.MergeRounds, rep.ReducerPeakBytes)
		}
		if got := reg.Snapshot().Gauges["skyline_reducer_peak_bytes"]; got != float64(rep.ReducerPeakBytes) {
			t.Errorf("skyline_reducer_peak_bytes = %v, report says %d", got, rep.ReducerPeakBytes)
		}
		// The rule as cmd/skymaster builds it, over a sampler of this registry.
		sampler := timeseries.NewSampler(reg, timeseries.Config{})
		sampler.Sample()
		rule := timeseries.GaugeAboveRule("reducer-budget", "skyline_reducer_peak_bytes", 0.8*float64(budget))
		if findings := rule.Eval(sampler); len(findings) != 1 || findings[0].Series != "skyline_reducer_peak_bytes" {
			t.Errorf("reducer-budget rule over a peak of %d bytes (budget %d): findings %+v, want one",
				rep.ReducerPeakBytes, budget, findings)
		}
	} else if rep.MergeRounds != 0 || rep.ReducerPeakBytes <= 0 {
		// Every reduce task reports what it held: the peak is what tells an
		// operator which budget the job would need.
		t.Errorf("unbudgeted report: merge_rounds %d, reducer_peak_bytes %d; want no rounds and a peak", rep.MergeRounds, rep.ReducerPeakBytes)
	}
	// Task completions are task spans in the stitched trace (at least one
	// map and one reduce task) — under a budget, Job 1's: the merge ran
	// here. A straggler is one marked span.
	kinds, marked := map[string]int{}, int64(0)
	for _, s := range tr.Spans() {
		if s.Name != "map-task" && s.Name != "reduce-task" {
			continue
		}
		kinds[s.Name]++
		for _, a := range s.Attrs {
			if a.Key == "straggler" && a.Value == true {
				marked++
			}
		}
	}
	if kinds["map-task"] == 0 || kinds["reduce-task"] == 0 {
		t.Errorf("task spans by kind = %v, want both map and reduce", kinds)
	}
	// A clean run surfaces zero retries/failures — the fields exist and
	// mirror rpcmr.Status rather than being dropped.
	st := master.Status()
	if rep.TaskRetries != st.TaskRetries || rep.WorkerFailures != st.WorkerFailures {
		t.Errorf("report retries/failures = %d/%d, status says %d/%d",
			rep.TaskRetries, rep.WorkerFailures, st.TaskRetries, st.WorkerFailures)
	}

	// The Publish bridge landed the rollups in the Prometheus exposition.
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParsePrometheus(string(body))
	if err != nil {
		t.Fatalf("metrics exposition does not parse: %v", err)
	}
	// The straggler count reconciles: the flight record, the job counter,
	// the master's per-worker counters and the marked task spans.
	perWorker := 0.0
	for series, v := range samples {
		if strings.HasPrefix(series, "rpcmr_stragglers_total{") {
			perWorker += v
		}
	}
	if counter := res.Stats.Counters[mapreduce.CounterStragglers]; rep.Stragglers != counter ||
		float64(counter) != perWorker || counter != marked || (stall > 0 && counter == 0) {
		t.Errorf("stragglers: flight record %d, %s %d, rpcmr_stragglers_total %v, marked spans %d; want one count (> 0 with a stalled worker)",
			rep.Stragglers, mapreduce.CounterStragglers, counter, perWorker, marked)
	}
	for _, name := range []string{
		"skyline_load_max", "skyline_load_mean", "skyline_load_imbalance",
		"skyline_load_gini", "skyline_local_optimality", "skyline_stragglers",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
	if math.Abs(samples["skyline_local_optimality"]-rep.Optimality) > 1e-9 {
		t.Errorf("exposed optimality %v != report %v",
			samples["skyline_local_optimality"], rep.Optimality)
	}

	// And the flight JSON round-trips through the /debug handler.
	mux2 := http.NewServeMux()
	telemetry.MountFlightRecorder(mux2, func() *telemetry.Recorder { return rec })
	srv2 := httptest.NewServer(mux2)
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + telemetry.FlightRecorderPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var decoded telemetry.Report
	if err := json.NewDecoder(resp2.Body).Decode(&decoded); err != nil {
		t.Fatalf("flight JSON does not decode: %v", err)
	}
	if len(decoded.Partitions) != partitions {
		t.Errorf("served report covers %d partitions, want %d", len(decoded.Partitions), partitions)
	}
}
