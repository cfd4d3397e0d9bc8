package driver

import (
	"context"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/skyline"
)

// Combination coverage: option interactions that individual tests miss.

// TestPartitionerOverride: a partitioner fitted outside the driver — the
// angular+radial hybrid — runs through the two jobs unchanged: Job 1 on
// its partitions, the same skyline.
func TestPartitionerOverride(t *testing.T) {
	data := uniformSet(101, 1000, 3)
	want := skyline.Naive(data)
	hybrid, err := partition.FitAngularRadial(data, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := computeOn(context.Background(), mapreduce.SetRows(data), data.Dim(), 0, hybrid,
		Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, want) {
		t.Error("hybrid partitioner changed the skyline")
	}
	if stats.Partitions != hybrid.Partitions() {
		t.Errorf("stats report %d partitions, hybrid has %d", stats.Partitions, hybrid.Partitions())
	}
}
