package driver

import (
	"context"
	"testing"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/skyline"
)

func naiveSkyband(t *testing.T, s points.Set, k int) points.Set {
	t.Helper()
	band, err := skyline.Skyband(s, k)
	if err != nil {
		t.Fatal(err)
	}
	return band
}

func TestComputeSkybandMatchesOracle(t *testing.T) {
	data := uniformSet(61, 600, 3)
	for _, k := range []int{1, 2, 3, 5} {
		want := naiveSkyband(t, data, k)
		for _, scheme := range allSchemes() {
			got, stats, err := ComputeSkyband(context.Background(), data, k, Options{Scheme: scheme, Nodes: 4})
			if err != nil {
				t.Fatalf("%v k=%d: %v", scheme, k, err)
			}
			if !sameMultiset(got, want) {
				t.Errorf("%v k=%d: %d points, oracle %d", scheme, k, len(got), len(want))
			}
			if stats.Timing.Total <= 0 {
				t.Errorf("%v k=%d: no timing", scheme, k)
			}
		}
	}
}

func TestComputeSkyband1IsSkyline(t *testing.T) {
	data := uniformSet(62, 500, 4)
	got, _, err := ComputeSkyband(context.Background(), data, 1, Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, skyline.Naive(data)) {
		t.Error("1-skyband differs from skyline")
	}
}

func TestComputeSkybandChainAcrossPartitions(t *testing.T) {
	// A dominance chain deliberately spread across partitions: local
	// counting alone would undercount dominators; the merge must fix it.
	var data points.Set
	for i := 0; i < 64; i++ {
		data = append(data, points.Point{float64(i), float64(i)})
	}
	for _, k := range []int{1, 2, 4} {
		want := naiveSkyband(t, data, k)
		got, _, err := ComputeSkyband(context.Background(), data, k, Options{
			Scheme: partition.Random, Partitions: 8, // scatter the chain
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(got, want) {
			t.Errorf("k=%d: %d points, oracle %d", k, len(got), len(want))
		}
	}
}

func TestComputeSkybandValidation(t *testing.T) {
	data := uniformSet(63, 50, 2)
	if _, _, err := ComputeSkyband(context.Background(), data, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := ComputeSkyband(context.Background(), nil, 2, Options{}); err == nil {
		t.Error("empty data accepted")
	}
}

func TestComputeSkybandSupersetOfSkyline(t *testing.T) {
	data := uniformSet(64, 800, 3)
	sky := skyline.Naive(data)
	band, _, err := ComputeSkyband(context.Background(), data, 3, Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	if len(band) < len(sky) {
		t.Fatalf("3-skyband (%d) smaller than skyline (%d)", len(band), len(sky))
	}
	for _, p := range sky {
		if !band.Contains(p) {
			t.Errorf("skyline point %v missing from 3-skyband", p)
		}
	}
}

// TestComputeSkybandNeverPrunesGridCells: MR-Grid drops a cell that one
// occupied cell dominates, which proves one dominator of its points — enough
// for the skyline, not for a band. Here the lower-left cell's single point
// dominates the whole upper-right cell, whose best point has no other
// dominator and so belongs to the 2-skyband.
func TestComputeSkybandNeverPrunesGridCells(t *testing.T) {
	data := points.Set{{1, 1}, {6, 6}, {7, 9}, {9, 7}, {8, 8}}
	opts := Options{Scheme: partition.Grid, Partitions: 4}
	if _, stats, err := Compute(context.Background(), data, opts); err != nil || stats.PrunedPartitions != 1 {
		t.Fatalf("the skyline run pruned %v cells (err %v), want the upper-right one: the test would prove nothing", stats, err)
	}
	got, stats, err := ComputeSkyband(context.Background(), data, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := (points.Set{{1, 1}, {6, 6}}); !sameMultiset(got, want) {
		t.Errorf("2-skyband = %v, want %v", got, want)
	}
	if stats.PrunedPartitions != 0 {
		t.Errorf("%d cells pruned under a band", stats.PrunedPartitions)
	}
}

// TestComputeSkybandRejectsReducerBudget: the budgeted fold and the merge
// schedule evict a row on its first dominator; running them for a band
// would silently return the skyline.
func TestComputeSkybandRejectsReducerBudget(t *testing.T) {
	data := uniformSet(65, 200, 3)
	got, stats, err := ComputeSkyband(context.Background(), data, 2, Options{ReducerBudgetBytes: 4 << 10, SpillDir: t.TempDir()})
	if err == nil || err.Error() != "driver: k-skyband does not run under a reducer budget" || got != nil || stats != nil {
		t.Errorf("budgeted band: got (%v, %v, %v), want the budget error", got, stats, err)
	}
}
