package driver

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rtree"
	"repro/internal/skyline"
)

// TestOptionSurface pins the number of independently settable values. A
// new field has to edit this count, and the simplicity guide's rule for
// one applies: two callers or workloads that exist today (tests and
// examples do not count) need different values, and the code cannot work
// the value out from its inputs or a measurement it already takes.
func TestOptionSurface(t *testing.T) {
	if n := reflect.TypeOf(Options{}).NumField(); n != 8 {
		t.Fatalf("driver.Options has %d fields, want 8", n)
	}
}

// bbsKernel is the R-tree BBS as a Set-typed kernel: it carries index
// state, and rides the framed path through skyline.BlockKernel.
func bbsKernel(s points.Set) points.Set {
	if len(s) == 0 {
		return nil
	}
	tr, err := rtree.New(s, rtree.DefaultFanout)
	if err != nil {
		panic(err)
	}
	return tr.Skyline(nil)
}

// TestComputeMatchesOracle is the pipeline's differential test: every
// scheme × option combination must return exactly what the classic
// sequential skyline.BNL returns over the whole input, with each
// partition's local skyline exactly skyline.BNL of the points the
// partitioner assigns to it, and every input point counted once — and
// every scheme × k × option combination of ComputeSkyband the same of
// skyline.Skyband(·, k). The BNL rows with no edit are the product,
// Compute and ComputeSkyband; every other row is an ablation — a kernel, no
// combiner, no pruning — and runs as one: an edit of PartitionJob's value
// through the seam (computeEdited), held to the same oracle.
func TestComputeMatchesOracle(t *testing.T) {
	uniform, dups := uniformSet(31, 600, 4), dupSet(32, 600, 3)
	kernels := []struct {
		name string
		edit jobEdit
	}{
		{"BNL", nil},
		{"SFS", withKernel(skyline.SFS)},
		{"D&C", withKernel(skyline.DivideConquer)},
		{"BBS override", withKernel(bbsKernel)},
	}
	variants := []struct {
		name string
		data points.Set
		set  func(*testing.T, *Options)
		edit jobEdit
		band bool // a row of the band table too
	}{
		{"default", uniform, func(*testing.T, *Options) {}, nil, true},
		{"no combiner", uniform, func(*testing.T, *Options) {}, noCombiner, true},
		{"no grid pruning", uniform, func(*testing.T, *Options) {}, asIs, false},
		{"spill", uniform, func(t *testing.T, o *Options) { o.SpillDir = t.TempDir() }, nil, true},
		// 4 KiB is a 128-row window at d=4: where the local skylines
		// together outgrow it the merge runs as the blocked round, where they
		// fit (MR-Angle's) as the filter job.
		{"budget 4 KiB", uniform, func(t *testing.T, o *Options) {
			o.ReducerBudgetBytes, o.Codec, o.SpillDir = 4<<10, points.FrameAuto, t.TempDir()
		}, nil, false},
		{"FrameAuto", uniform, func(_ *testing.T, o *Options) { o.Codec = points.FrameAuto }, nil, true},
		{"one partition", uniform, func(_ *testing.T, o *Options) { o.Partitions = 1 }, nil, true},
		{"duplicates", dups, func(*testing.T, *Options) {}, nil, true},
	}
	// run is the product when no edit is asked for, the seam otherwise; it
	// reports which, because only the product prunes.
	run := func(data points.Set, band int, opts Options, edits ...jobEdit) (points.Set, *Stats, bool, error) {
		edits = slices.DeleteFunc(edits, func(e jobEdit) bool { return e == nil })
		if len(edits) > 0 {
			got, stats, err := computeEdited(context.Background(), data, band, opts, edits...)
			return got, stats, false, err
		}
		if band > 0 {
			got, stats, err := ComputeSkyband(context.Background(), data, band, opts)
			return got, stats, true, err
		}
		got, stats, err := Compute(context.Background(), data, opts)
		return got, stats, true, err
	}
	for _, scheme := range allSchemes() {
		for _, v := range variants {
			for _, k := range kernels {
				t.Run(fmt.Sprintf("%v/%s/%s", scheme, k.name, v.name), func(t *testing.T) {
					opts := Options{Scheme: scheme, Nodes: 4}
					v.set(t, &opts)
					got, stats, product, err := run(v.data, 0, opts, k.edit, v.edit)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstOracle(t, v.data, opts, 0, product, got, stats)
				})
			}
			for _, k := range []int{1, 2, 5} {
				if !v.band {
					continue
				}
				t.Run(fmt.Sprintf("%v/%d-skyband/%s", scheme, k, v.name), func(t *testing.T) {
					opts := Options{Scheme: scheme, Nodes: 4}
					v.set(t, &opts)
					got, stats, product, err := run(v.data, k, opts, v.edit)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstOracle(t, v.data, opts, k, product, got, stats)
				})
			}
		}
	}
}

// checkAgainstOracle holds one finished run to the sequential operator:
// the classic skyline.BNL, or for band = k > 0 skyline.Skyband(·, k).
// product says the run was Compute or ComputeSkyband, which prune grid
// cells for the skyline; a job run through the seam without a mask does not.
func checkAgainstOracle(t *testing.T, data points.Set, opts Options, band int, product bool, got points.Set, stats *Stats) {
	t.Helper()
	oracle := skyline.BNL
	if band > 0 {
		oracle = func(s points.Set) points.Set { return naiveSkyband(t, s, band) }
	}
	if want := oracle(data); !sameMultiset(got, want) {
		t.Errorf("global result has %d points, oracle %d", len(got), len(want))
	}
	total := 0
	for _, c := range stats.PartitionCounts {
		total += c
	}
	if total != len(data) {
		t.Errorf("partition counts sum to %d, want %d", total, len(data))
	}
	opts = opts.withDefaults()
	part, err := partition.New(opts.Scheme, data, opts.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	members := make(map[int]points.Set)
	for _, p := range data {
		id, err := part.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		members[id] = append(members[id], p)
	}
	for id := range stats.LocalSkylines {
		if len(members[id]) == 0 {
			t.Errorf("partition %d has a local skyline and no points", id)
		}
	}
	_, prunes := part.(partition.Pruner)
	prunes = prunes && product && band == 0 // a band never prunes
	for id, m := range members {
		local, ok := stats.LocalSkylines[id]
		if !ok && prunes {
			continue // a pruned cell: the global check covers its points
		}
		if want := oracle(m); !sameMultiset(local, want) {
			t.Errorf("partition %d: local result %d points, oracle %d", id, len(local), len(want))
		}
	}
	if stats.PrunedPartitions > 0 && !prunes {
		t.Errorf("%d partitions pruned with pruning off", stats.PrunedPartitions)
	}
	// The candidates' size picks the merge: the blocked round runs exactly
	// when the local skylines exceed a budget; otherwise the filter job does.
	size := int64(stats.LocalSkylineTotal()) * int64(data.Dim()) * 8
	if over := opts.ReducerBudgetBytes > 0 && size > opts.ReducerBudgetBytes; over != (stats.MergeRounds > 0) {
		t.Errorf("budget %d, %d candidate bytes: ran %d merge rounds", opts.ReducerBudgetBytes, size, stats.MergeRounds)
	}
}
