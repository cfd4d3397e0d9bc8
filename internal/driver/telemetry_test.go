package driver

import (
	"context"
	"strings"
	"testing"

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
