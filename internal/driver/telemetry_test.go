package driver

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/qws"
	"repro/internal/telemetry"
)

// TestDominanceCounterBridged: a run with a registry must surface the
// flat kernels' dominance-test delta as skyline_dominance_tests_total.
func TestDominanceCounterBridged(t *testing.T) {
	data := qws.Dataset(9, 800, 4)
	reg := telemetry.NewRegistry()
	_, _, err := Compute(context.Background(), data,
		Options{Scheme: partition.Angular, Nodes: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("skyline_dominance_tests_total").Value(); v <= 0 {
		t.Fatalf("skyline_dominance_tests_total = %d, want > 0", v)
	}
}

// TestComputeTelemetry: the in-process pipeline with a registry and
// tracer attached must publish per-partition gauges and record a root
// span with the two engine jobs nested under it.
func TestComputeTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer()
	ctx := telemetry.WithTracer(context.Background(), tr)
	data := uniformSet(11, 500, 2)
	opts := Options{Scheme: partition.Grid, Nodes: 2, Metrics: reg}
	sky, stats, err := Compute(ctx, data, opts)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	sizeGauges := 0
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "skyline_partition_local_size{") {
			sizeGauges++
		}
	}
	if sizeGauges != len(stats.LocalSkylines) {
		t.Errorf("local-size gauges = %d, want %d", sizeGauges, len(stats.LocalSkylines))
	}
	if got := snap.Gauges["skyline_global_size"]; got != float64(len(sky)) {
		t.Errorf("skyline_global_size = %v, want %d", got, len(sky))
	}
	if got := snap.Gauges["skyline_pruned_partitions"]; got != float64(stats.PrunedPartitions) {
		t.Errorf("skyline_pruned_partitions = %v, want %d", got, stats.PrunedPartitions)
	}
	// Both engine jobs bridged their counters under their job label.
	if snap.Counters[`mr_jobs_total{job="MR-Grid-partitioning"}`] != 1 ||
		snap.Counters[`mr_jobs_total{job="MR-Grid-merging"}`] != 1 {
		t.Errorf("engine jobs not bridged: %v", snap.Counters)
	}

	byName := map[string]telemetry.SpanData{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	root, ok := byName["skyline:MR-Grid"]
	if !ok {
		t.Fatal("no root skyline span")
	}
	for _, job := range []string{"mr-job:MR-Grid-partitioning", "mr-job:MR-Grid-merging"} {
		s, ok := byName[job]
		if !ok {
			t.Fatalf("no %s span", job)
		}
		if s.Parent != root.ID {
			t.Errorf("%s not nested under the skyline span", job)
		}
	}
}

// TestMergeScheduleSpans: the budgeted merge is traced as its one blocked
// round — one merge-round span under the run's root span, carrying the
// round's number, group count and candidate bytes, around the round's
// map-only job, whose map tasks — one per group, at least two — run on the
// workers' tracks. The round accounts for the merge's wall time, and with
// two workers two of its tasks run at the same time. Nothing of the
// master-side schedule is left: no merge-schedule, no merge-fold span.
func TestMergeScheduleSpans(t *testing.T) {
	const workers = 2
	tr := telemetry.NewTracer()
	ctx := telemetry.WithTracer(context.Background(), tr)
	data := dataset.Generate(dataset.KindAnticorrelated, 17, 60000, 8)
	_, stats, err := Compute(ctx, data, Options{Scheme: partition.Angular, Nodes: 2, Workers: workers,
		SpillDir: t.TempDir(), ReducerBudgetBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	byID := map[uint64]telemetry.SpanData{}
	var root telemetry.SpanData
	rounds := map[uint64]telemetry.SpanData{}
	for _, s := range spans {
		byID[s.ID] = s
		switch s.Name {
		case "skyline:MR-Angle":
			root = s
		case "merge-round":
			rounds[s.ID] = s
		case "merge-schedule", "merge-fold":
			t.Errorf("a %s span: the merge runs on the executor now", s.Name)
		}
	}
	tasks := map[uint64][]telemetry.SpanData{} // by round span
	for _, s := range spans {
		if s.Name != "map-task" {
			continue
		}
		for up, ok := byID[s.Parent]; ok; up, ok = byID[up.Parent] {
			if up.Name == "merge-round" {
				tasks[up.ID] = append(tasks[up.ID], s)
				if s.Track < 1 || s.Track > workers {
					t.Errorf("round map task on track %d, want a worker's (1..%d)", s.Track, workers)
				}
				break
			}
		}
	}
	if len(rounds) != 1 || stats.MergeRounds != 1 || stats.MergeGroups < 2 {
		t.Fatalf("%d merge-round spans, Stats.MergeRounds = %d of %d groups, want one round of >= 2", len(rounds), stats.MergeRounds, stats.MergeGroups)
	}
	attr := func(s telemetry.SpanData, key string) int64 {
		for _, a := range s.Attrs {
			if a.Key == key {
				switch v := a.Value.(type) {
				case int:
					return int64(v)
				case int64:
					return v
				}
			}
		}
		t.Fatalf("span %s has no integer attribute %q", s.Name, key)
		return 0
	}
	var inRounds time.Duration
	overlapped := false
	for id, r := range rounds {
		if r.Parent != root.ID {
			t.Errorf("merge-round %d not nested under the skyline span", attr(r, "round"))
		}
		inRounds += r.Duration
		n := attr(r, "round")
		if got := attr(r, "bytes"); n < 1 || int(n) > stats.MergeRounds || got != stats.MergeRoundBytes[n-1] {
			t.Errorf("merge-round %d carries %d bytes, Stats.MergeRoundBytes = %v", n, got, stats.MergeRoundBytes)
		}
		fs := tasks[id]
		if int64(len(fs)) != attr(r, "groups") || int(attr(r, "groups")) != stats.MergeGroups {
			t.Errorf("merge-round %d: %d map tasks for %d groups", n, len(fs), attr(r, "groups"))
		}
		for i := range fs {
			for j := range fs[:i] {
				a, b := fs[i], fs[j]
				if a.Start.Before(b.Start.Add(b.Duration)) && b.Start.Before(a.Start.Add(a.Duration)) {
					overlapped = true
				}
			}
		}
	}
	// On one processor the second task may only start when the first is done.
	if !overlapped && runtime.GOMAXPROCS(0) >= workers {
		t.Errorf("no two map tasks of a round overlap with %d workers", workers)
	}
	// What is outside the round's job is handing it the groups and the stream.
	if gap := inRounds - stats.MergeJob.Total; gap < 0 || gap > max(inRounds/10, 2*time.Millisecond) {
		t.Errorf("the rounds' jobs take %v of %v in rounds", stats.MergeJob.Total, inRounds)
	}
	t.Logf("rounds %v, their jobs %v, round bytes %v", inRounds, stats.MergeJob.Total, stats.MergeRoundBytes)
}
