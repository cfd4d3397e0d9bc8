package driver

import (
	"context"
	"testing"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rtree"
	"repro/internal/skyline"
)

// pointsSet keeps the kernel-override test readable.
type pointsSet = points.Set

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

func TestKernelOverrideBBS(t *testing.T) {
	data := uniformSet(103, 700, 4)
	want := skyline.Naive(data)
	bbsKernel := func(s pointsSet) pointsSet {
		if len(s) == 0 {
			return nil
		}
		tr, err := rtree.New(s, rtree.DefaultFanout)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Skyline(nil)
	}
	got, _, err := Compute(context.Background(), data, Options{
		Scheme:         partition.Grid,
		KernelOverride: bbsKernel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, want) {
		t.Error("BBS kernel override changed the skyline")
	}
}
