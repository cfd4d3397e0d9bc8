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

// TestMergeScheduleSpans: the budgeted merge is traced round by round —
// one merge-round span per round under merge-schedule, carrying the
// round's number, group count and candidate bytes, with one merge-fold
// child per group on its worker's track. The rounds account for the
// schedule's wall time, and with two workers the folds of a two-group
// round run at the same time.
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
	var schedule telemetry.SpanData
	rounds := map[uint64]telemetry.SpanData{}
	folds := map[uint64][]telemetry.SpanData{} // by round span
	for _, s := range tr.Spans() {
		switch s.Name {
		case "merge-schedule":
			schedule = s
		case "merge-round":
			rounds[s.ID] = s
		case "merge-fold":
			folds[s.Parent] = append(folds[s.Parent], s)
			if s.Track < 1 || s.Track > workers {
				t.Errorf("merge-fold on track %d, want a worker's (1..%d)", s.Track, workers)
			}
		}
	}
	if len(rounds) != stats.MergeRounds || stats.MergeRounds < 2 {
		t.Fatalf("%d merge-round spans, Stats.MergeRounds = %d, want equal and >= 2", len(rounds), stats.MergeRounds)
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
		if r.Parent != schedule.ID {
			t.Errorf("merge-round %d not nested under merge-schedule", attr(r, "round"))
		}
		inRounds += r.Duration
		n := attr(r, "round")
		if got := attr(r, "bytes"); n < 1 || int(n) > stats.MergeRounds || got != stats.MergeRoundBytes[n-1] {
			t.Errorf("merge-round %d carries %d bytes, Stats.MergeRoundBytes = %v", n, got, stats.MergeRoundBytes)
		}
		fs := folds[id]
		if int64(len(fs)) != attr(r, "groups") {
			t.Errorf("merge-round %d: %d merge-fold spans for %d groups", n, len(fs), attr(r, "groups"))
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
	// On one processor the second fold may only start when the first is done.
	if !overlapped && runtime.GOMAXPROCS(0) >= workers {
		t.Errorf("no two folds of a round overlap with %d workers", workers)
	}
	// What is outside the rounds is packing a handful of blocks into groups.
	if gap := schedule.Duration - inRounds; gap < 0 || gap > max(schedule.Duration/10, 2*time.Millisecond) {
		t.Errorf("rounds sum to %v of a %v schedule", inRounds, schedule.Duration)
	}
	t.Logf("schedule %v, rounds %v, round bytes %v", schedule.Duration, inRounds, stats.MergeRoundBytes)
}
