// Package skymr is a from-scratch Go reproduction of "MapReduce Skyline
// Query Processing with A New Angular Partitioning Approach" (Chen, Hwang,
// Wu — IEEE IPDPSW 2012): scalable parallel skyline query processing over
// a hand-rolled MapReduce engine, with the paper's three data-space
// partitioning schemes — MR-Dim, MR-Grid, and the novel MR-Angle.
//
// The skyline of a multi-attribute QoS dataset is the set of services not
// dominated by any other service, where service p dominates q when p is at
// least as good in every attribute and strictly better in one (lower is
// better throughout this library). The MapReduce pipeline partitions the
// data space, computes per-partition local skylines in parallel with BNL,
// and merges them into the global skyline — MR-Angle's hyperspherical
// sectors make local skylines small and globally relevant, which is what
// cuts the merge (Reduce) cost.
//
// # Quick start
//
//	data := skymr.GenerateQWS(42, 10000, 4) // or load your own Set
//	res, err := skymr.Compute(context.Background(), data, skymr.Options{
//		Method: skymr.Angle,
//		Nodes:  4,
//	})
//	if err != nil { ... }
//	fmt.Println(len(res.Skyline), res.Optimality(), res.Timing.Total)
//
// For distributed execution over TCP see cmd/skymaster and cmd/skyworker;
// for the paper's evaluation and the repository's acceptance gates — one
// registry of experiments in internal/experiments — see cmd/skybench.
package skymr

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/qws"
	"repro/internal/skyline"
)

// Point is one service's QoS attribute vector; lower values are better in
// every dimension.
type Point = points.Point

// Set is an ordered collection of points.
type Set = points.Set

// Method selects the data-space partitioning scheme.
type Method int

const (
	// Dim is MR-Dim: equal ranges along one dimension.
	Dim Method = iota
	// Grid is MR-Grid: a Cartesian grid with dominated-cell pruning.
	Grid
	// Angle is MR-Angle: the paper's novel hyperspherical sectors.
	Angle
	// Random is a hash-partitioned baseline (not in the paper).
	Random
)

// String returns the paper's name for the method.
func (m Method) String() string { return m.scheme().String() }

func (m Method) scheme() partition.Scheme {
	switch m {
	case Dim:
		return partition.Dimensional
	case Grid:
		return partition.Grid
	case Angle:
		return partition.Angular
	case Random:
		return partition.Random
	default:
		return partition.Scheme(-1)
	}
}

// ParseMethod reads a method as the command-line tools spell it: angle,
// grid, dim or random (partition.ParseScheme).
func ParseMethod(flag string) (Method, error) {
	scheme, err := partition.ParseScheme(flag)
	for m := Dim; err == nil && m <= Random; m++ {
		if m.scheme() == scheme {
			return m, nil
		}
	}
	return 0, err
}

// Methods lists the paper's three methods in presentation order.
func Methods() []Method { return []Method{Dim, Grid, Angle} }

// Options configures a Compute call. The zero value runs MR-Dim on 4
// nodes; set Method for the other schemes. What the options choose is how
// the data is partitioned and how much memory and disk the job may use —
// never the operator: both jobs run BNL, the paper's kernel, and the
// ablations of the local-skyline combiner, grid pruning and the kernel are
// studies in internal/experiments (cmd/skybench -run ablation), not
// settings.
type Options struct {
	// Method is the partitioning scheme (default Dim).
	Method Method
	// Nodes models the cluster size; the partition count defaults to
	// 2 × Nodes, the paper's empirical rule. Default 4.
	Nodes int
	// Partitions overrides the partition count when > 0.
	Partitions int
	// Workers is the number of concurrent engine workers; defaults to
	// Nodes. It does not bound MR-Grid's fit, whose one pass over every
	// row runs on GOMAXPROCS goroutines.
	Workers int
	// SpillDir, when set, spills intermediate MapReduce data to sequence
	// files under this existing directory instead of the heap.
	SpillDir string
	// ReducerBudgetBytes bounds every reducer's resident candidate window
	// at this many payload bytes; overflow streams through spill frames
	// and resolves in extra passes, and when the local skylines exceed it
	// the merge's groups are cut to it, each with the rows at or below its
	// sums streamed past it — in place of the paper's §II iterative merge
	// for very large candidate sets (see DESIGN.md "The merge"). 0 is no
	// bound — the same reducers with a window that never fills — and the
	// merge's groups are one a worker. Budgeted runs seal
	// frames with the size-adaptive auto codec.
	ReducerBudgetBytes int64
}

// driverOptions is the one conversion to the driver's options, for Compute,
// ComputeSkyband, BuildIndex and LoadIndex alike: every field crosses, and
// an unknown Method is this package's error everywhere. Budgeted runs
// spill, so they seal frames with the size-adaptive auto codec; unbudgeted
// runs keep the default.
func (o Options) driverOptions() (driver.Options, error) {
	if o.Method.scheme() < 0 {
		return driver.Options{}, fmt.Errorf("skymr: unknown method %d", int(o.Method))
	}
	d := driver.Options{
		Scheme:             o.Method.scheme(),
		Nodes:              o.Nodes,
		Partitions:         o.Partitions,
		Workers:            o.Workers,
		SpillDir:           o.SpillDir,
		ReducerBudgetBytes: o.ReducerBudgetBytes,
	}
	if o.ReducerBudgetBytes > 0 {
		d.Codec = points.FrameAuto
	}
	return d, nil
}

// Timing is the per-phase wall-clock breakdown of a computation.
type Timing struct {
	Map     time.Duration // map + combine across both jobs
	Shuffle time.Duration
	Reduce  time.Duration
	Total   time.Duration
}

// Result carries the skyline and the execution evidence.
type Result struct {
	// Skyline is the global skyline of the input.
	Skyline Set
	// Method echoes the partitioning scheme used.
	Method Method
	// Partitions is the planned partition count.
	Partitions int
	// PrunedPartitions counts grid cells skipped by dominance pruning.
	PrunedPartitions int
	// LocalSkylines maps partition id → local skyline.
	LocalSkylines map[int]Set
	// PartitionCounts is the number of input points per partition.
	PartitionCounts []int
	// Timing is the phase breakdown summed over the two MapReduce jobs.
	Timing Timing
	// Counters exposes the engine's framework counters (see package
	// mapreduce for names).
	Counters map[string]int64
}

// Optimality computes the paper's Eq. (5) local skyline optimality of
// this run: the average fraction of local skyline services that are also
// globally optimal.
func (r *Result) Optimality() float64 {
	local := make(map[int]points.Set, len(r.LocalSkylines))
	for id, s := range r.LocalSkylines {
		local[id] = s
	}
	return metrics.LocalSkylineOptimality(local, r.Skyline)
}

// LocalSkylineTotal returns the number of points across all local
// skylines — the volume entering the merge job.
func (r *Result) LocalSkylineTotal() int {
	n := 0
	for _, s := range r.LocalSkylines {
		n += len(s)
	}
	return n
}

// Compute runs the selected MapReduce skyline method over data. The input
// must be non-empty, finite and uniform-dimensional; it is not mutated.
func Compute(ctx context.Context, data Set, opts Options) (*Result, error) {
	dopts, err := opts.driverOptions()
	if err != nil {
		return nil, err
	}
	sky, stats, err := driver.Compute(ctx, data, dopts)
	if err != nil {
		return nil, err
	}
	local := make(map[int]Set, len(stats.LocalSkylines))
	for id, s := range stats.LocalSkylines {
		local[id] = s
	}
	return &Result{
		Skyline:          sky,
		Method:           opts.Method,
		Partitions:       stats.Partitions,
		PrunedPartitions: stats.PrunedPartitions,
		LocalSkylines:    local,
		PartitionCounts:  stats.PartitionCounts,
		Timing: Timing{
			Map:     stats.Timing.Map,
			Shuffle: stats.Timing.Shuffle,
			Reduce:  stats.Timing.Reduce,
			Total:   stats.Timing.Total,
		},
		Counters: stats.Counters,
	}, nil
}

// ComputeSkyband runs the MapReduce k-skyband — services dominated by
// fewer than k others — the QoS-tolerant generalization of the skyline
// (k = 1 is exactly Compute's skyline). Same two-job structure and
// options as Compute, but for the two the band has no use for: no grid
// cell is pruned, and a reducer budget is an error.
func ComputeSkyband(ctx context.Context, data Set, k int, opts Options) (Set, error) {
	dopts, err := opts.driverOptions()
	if err != nil {
		return nil, err
	}
	band, _, err := driver.ComputeSkyband(ctx, data, k, dopts)
	return band, err
}

// Skyband computes the k-skyband sequentially — the single-machine
// reference.
func Skyband(data Set, k int) (Set, error) { return skyline.Skyband(data, k) }

// Skyline computes the skyline sequentially with BNL — the single-machine
// reference for small inputs and verification.
func Skyline(data Set) Set { return skyline.BNL(data) }

// SkylineParallel computes the skyline on shared memory with a pool of
// goroutines (chunk → local BNL → merge). workers ≤ 0 selects GOMAXPROCS.
func SkylineParallel(data Set, workers int) Set {
	return skyline.Parallel(data, workers)
}

// SkylineBounded computes the skyline with the memory-bounded multi-pass
// BNL of Börzsönyi et al.: the candidate window holds at most window
// points, overflow goes to a temporary file under os.TempDir and is
// re-processed in later passes. The file is gone when SkylineBounded
// returns, whatever it returns. Exact for any window ≥ 1.
func SkylineBounded(data Set, window int) (Set, error) {
	if window < 1 {
		return nil, fmt.Errorf("skymr: window size %d, need >= 1", window)
	}
	blk, ok := points.BlockOf(data)
	if !ok {
		return nil, fmt.Errorf("skymr: %w", data.Validate())
	}
	if blk.Len() == 0 {
		return nil, nil
	}
	fold := skyline.NewBudgetedFold(blk.Dim(), int64(window)*int64(blk.Dim())*8, "", points.FrameDefault)
	defer fold.Close()
	if err := fold.Absorb(blk); err != nil {
		return nil, err
	}
	sky, err := fold.Finish()
	if err != nil {
		return nil, err
	}
	return sky.ToSet(), nil
}

// RepresentativeSkyline picks k spread-out members of a skyline (greedy
// max-min dispersion over normalized attributes) — a shortlist a human
// can actually review when the full Pareto set is large.
func RepresentativeSkyline(sky Set, k int) Set {
	return skyline.Representative(sky, k)
}

// Dominates reports whether p dominates q (lower-is-better in every
// dimension, strictly in at least one).
func Dominates(p, q Point) bool { return points.Dominates(p, q) }

// GenerateQWS synthesizes a QWS-like web-service QoS dataset of n services
// over the first d of the 10 modelled attributes (see DESIGN.md for the
// substitution rationale), oriented for minimization. For n > 10,000 the
// base is extended by the paper's narrow-jitter resampling.
func GenerateQWS(seed int64, n, d int) Set { return qws.Dataset(seed, n, d) }

// QWSAttributeNames returns the names of the first d QWS attributes, in
// the column order GenerateQWS uses.
func QWSAttributeNames(d int) []string { return qws.Names(d) }

// LoadQWS parses a file in the published QWS dataset format (nine QoS
// columns plus optional name/WSDL columns), orienting every attribute for
// minimization. It returns the point set and the service names.
func LoadQWS(r io.Reader) (Set, []string, error) { return qws.Load(r) }

// Orient converts raw data to the minimization convention: dimensions
// flagged higher-is-better are flipped as (observed max − value). Use when
// loading arbitrary QoS data with mixed benefit/cost attributes.
func Orient(data Set, higherBetter []bool) (Set, error) {
	return points.Orient(data, higherBetter)
}

// Normalize rescales every dimension to [0, 1] by observed min/max.
// Dominance (and therefore the skyline) is preserved.
func Normalize(data Set) (Set, error) { return points.Normalize(data) }

// ReadCSV loads a point set from CSV (optionally skipping a header row).
func ReadCSV(r io.Reader, hasHeader bool) (Set, []string, error) {
	return points.ReadCSV(r, hasHeader)
}

// WriteCSV writes a point set as CSV with an optional header.
func WriteCSV(w io.Writer, s Set, header []string) error {
	return points.WriteCSV(w, s, header)
}
