package driver

import (
	"context"
	"fmt"
	"reflect"
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
	if n := reflect.TypeOf(Options{}).NumField(); n != 13 {
		t.Fatalf("driver.Options has %d fields, want 13", n)
	}
}

// bbsKernel is the R-tree BBS as a KernelOverride: a kernel with no
// Algorithm value, riding the framed path through skyline.BlockKernel.
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
// scheme × kernel × option combination must return exactly what the
// classic sequential skyline.BNL returns over the whole input, with each
// partition's local skyline exactly skyline.BNL of the points the
// partitioner assigns to it, and every input point counted once — and
// every scheme × k × option combination of ComputeSkyband the same of
// skyline.Skyband(·, k).
func TestComputeMatchesOracle(t *testing.T) {
	uniform, dups := uniformSet(31, 600, 4), dupSet(32, 600, 3)
	kernels := []struct {
		name string
		set  func(*Options)
	}{
		{"BNL", func(o *Options) { o.Kernel = skyline.BNLAlgorithm }},
		{"SFS", func(o *Options) { o.Kernel = skyline.SFSAlgorithm }},
		{"D&C", func(o *Options) { o.Kernel = skyline.DCAlgorithm }},
		{"BBS override", func(o *Options) { o.KernelOverride = bbsKernel }},
	}
	variants := []struct {
		name string
		data points.Set
		set  func(*testing.T, *Options)
		band bool // a row of the band table too
	}{
		{"default", uniform, func(*testing.T, *Options) {}, true},
		{"no combiner", uniform, func(_ *testing.T, o *Options) { o.DisableCombiner = true }, true},
		{"no grid pruning", uniform, func(_ *testing.T, o *Options) { o.DisableGridPruning = true }, false},
		{"spill", uniform, func(t *testing.T, o *Options) { o.SpillDir = t.TempDir() }, true},
		// 4 KiB is a 128-row window at d=4: the local skylines together
		// outgrow it, so the merge schedule needs a second round.
		{"budget 4 KiB", uniform, func(t *testing.T, o *Options) {
			o.ReducerBudgetBytes, o.Codec, o.SpillDir = 4<<10, points.FrameAuto, t.TempDir()
		}, false},
		{"FrameAuto", uniform, func(_ *testing.T, o *Options) { o.Codec = points.FrameAuto }, true},
		{"one partition", uniform, func(_ *testing.T, o *Options) { o.Partitions = 1 }, true},
		{"duplicates", dups, func(*testing.T, *Options) {}, true},
	}
	for _, scheme := range allSchemes() {
		for _, v := range variants {
			for _, k := range kernels {
				t.Run(fmt.Sprintf("%v/%s/%s", scheme, k.name, v.name), func(t *testing.T) {
					opts := Options{Scheme: scheme, Nodes: 4}
					k.set(&opts)
					v.set(t, &opts)
					got, stats, err := Compute(context.Background(), v.data, opts)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstOracle(t, v.data, opts, 0, got, stats)
				})
			}
			for _, k := range []int{1, 2, 5} {
				if !v.band {
					continue
				}
				t.Run(fmt.Sprintf("%v/%d-skyband/%s", scheme, k, v.name), func(t *testing.T) {
					opts := Options{Scheme: scheme, Nodes: 4}
					v.set(t, &opts)
					got, stats, err := ComputeSkyband(context.Background(), v.data, k, opts)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstOracle(t, v.data, opts, k, got, stats)
				})
			}
		}
	}
}

// checkAgainstOracle holds one finished run to the sequential operator:
// the classic skyline.BNL, or for band = k > 0 skyline.Skyband(·, k).
func checkAgainstOracle(t *testing.T, data points.Set, opts Options, band int, got points.Set, stats *Stats) {
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
	prunes = prunes && !opts.DisableGridPruning && band == 0 // a band never prunes
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
	// The budget is the one value that picks the merge.
	if budgeted := opts.ReducerBudgetBytes > 0; budgeted != (stats.MergeRounds > 0) {
		t.Errorf("budget %d ran %d merge rounds", opts.ReducerBudgetBytes, stats.MergeRounds)
	}
}
