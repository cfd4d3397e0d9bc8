package driver

import (
	"context"
	"testing"

	"repro/internal/partition"
	"repro/internal/skyline"
)

// Combination coverage: option interactions that individual tests miss.

func TestPartitionerOverride(t *testing.T) {
	data := uniformSet(101, 1000, 3)
	want := skyline.Naive(data)
	hybrid, err := partition.FitAngularRadial(data, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := Compute(context.Background(), data, Options{
		Scheme:              partition.Angular,
		PartitionerOverride: hybrid,
	})
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
