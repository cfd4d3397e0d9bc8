package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/driver"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/qws"
	"repro/internal/rtree"
	"repro/internal/skyline"
)

// bbsKernel adapts the R-tree BBS algorithm to the sequential-kernel
// signature: build an STR-packed tree per invocation, then run the
// branch-and-bound traversal.
func bbsKernel(s points.Set) points.Set {
	if len(s) == 0 {
		return nil
	}
	tr, err := rtree.New(s, rtree.DefaultFanout)
	if err != nil {
		// Kernel signatures are infallible; an unbuildable tree means
		// invalid points, which the driver validated already.
		panic("experiments: bbs kernel: " + err.Error())
	}
	return tr.Skyline(nil)
}

// AblationRow is one configuration of the design-choice studies that
// DESIGN.md calls out beyond the paper's own figures.
type AblationRow struct {
	Name           string
	Time           time.Duration
	ShuffleRecords int64
	LocalSkyTotal  int
	PrunedCells    int
	GlobalSkyline  int
	Optimality     float64
}

// ablation is one row's configuration. The rows without an edit are the
// product: driver.Compute over scheme. The others are ablations proper, and
// no option reaches them — a job is a value, so each one edits the Job 1
// driver.PartitionJob returns and runs Algorithm 1 over it (driver.InProcess,
// driver.TwoJobs; see driver/frame.go, "Ablations are job edits"), over the
// row's own partitioner when it has one. That run is handed no pruning
// mask, which is all "pruning off" takes.
type ablation struct {
	name   string
	scheme partition.Scheme
	part   partition.Partitioner
	edit   func(*mapreduce.FrameJob)
}

// asIs edits nothing: Job 1 as it is, over the row's partitioner, unpruned.
func asIs(*mapreduce.FrameJob) {}

// noCombiner ships raw partition contents to the reducers (the paper's
// §II-B "middle process" turned off).
func noCombiner(job *mapreduce.FrameJob) { job.Accumulators = nil }

// withKernel swaps BNL for a Set-typed kernel: staged rows and a block
// combiner map side, the kernel over each assembled partition reduce side.
func withKernel(f skyline.Func) func(*mapreduce.FrameJob) {
	kernel := skyline.BlockKernel(f)
	op := func(_ int, blk *points.Block) (*points.Block, error) { return kernel(blk), nil }
	return func(job *mapreduce.FrameJob) {
		job.Accumulators, job.Combiner, job.Folder = nil, op, mapreduce.Assembled(op)
	}
}

// ablations lists the rows.
func ablations(data points.Set, sc Scale) ([]ablation, error) {
	// The angular+radial hybrid: same sectors further cut into 4 radial
	// shells — measures the cost of partitions that do NOT span the
	// quality gradient (the paper's core argument for pure angles).
	hybrid, err := partition.FitAngularRadial(data, 2*sc.Nodes, 4)
	if err != nil {
		return nil, fmt.Errorf("ablation: fitting hybrid: %w", err)
	}
	return []ablation{
		{"MR-Angle (BNL, combiner)", partition.Angular, nil, nil},
		{"MR-Angle+RadialShells", partition.Angular, hybrid, asIs},
		{"MR-Angle no combiner", partition.Angular, nil, noCombiner},
		{"MR-Angle SFS kernel", partition.Angular, nil, withKernel(skyline.SFS)},
		{"MR-Angle D&C kernel", partition.Angular, nil, withKernel(skyline.DivideConquer)},
		{"MR-Angle BBS kernel", partition.Angular, nil, withKernel(bbsKernel)},
		{"MR-Grid (pruning on)", partition.Grid, nil, nil},
		{"MR-Grid pruning off", partition.Grid, nil, asIs},
		{"MR-Random baseline", partition.Random, nil, nil},
		{"MR-Dim", partition.Dimensional, nil, nil},
	}, nil
}

// run computes the row's skyline of data at scale sc.
func (a ablation) run(ctx context.Context, data points.Set, sc Scale) (points.Set, *driver.Stats, error) {
	opts := driver.Options{Scheme: a.scheme, Nodes: sc.Nodes, Partitions: 2 * sc.Nodes, Workers: sc.Workers}
	if a.edit == nil {
		return driver.Compute(ctx, data, opts)
	}
	part := a.part
	if part == nil {
		var err error
		if part, err = partition.New(a.scheme, data, opts.Partitions); err != nil {
			return nil, nil, err
		}
	}
	dim := data.Dim()
	job := driver.PartitionJob(part, nil, dim, 0, opts)
	a.edit(&job)
	return driver.TwoJobs(ctx, driver.InProcess(mapreduce.SetRows(data), job, dim, 0, opts), dim, part, nil, nil, opts)
}

// Ablations measures, on one QWS-like dataset, the impact of: the
// local-skyline combiner (the paper's "middle process"), grid cell
// pruning, the sequential kernel choice, the random-partitioning baseline
// and the angular+radial hybrid.
func Ablations(ctx context.Context, sc Scale, n, d int) ([]AblationRow, error) {
	data := qws.Dataset(sc.Seed, n, d)
	cfgs, err := ablations(data, sc)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, 0, len(cfgs))
	for _, c := range cfgs {
		global, stats, err := c.run(ctx, data, sc)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", c.name, err)
		}
		rows = append(rows, AblationRow{
			Name:           c.name,
			Time:           stats.Timing.Total,
			ShuffleRecords: stats.Counters["mr.shuffle.records"],
			LocalSkyTotal:  stats.LocalSkylineTotal(),
			PrunedCells:    stats.PrunedPartitions,
			GlobalSkyline:  len(global),
			Optimality:     metrics.LocalSkylineOptimality(stats.LocalSkylines, global),
		})
	}
	return rows, nil
}

// WriteAblations renders the rows.
func WriteAblations(w io.Writer, rows []AblationRow, title string) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-26s%12s%10s%10s%8s%8s%8s\n",
		"configuration", "time", "shuffle", "localsky", "pruned", "global", "opt")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s%12s%10d%10d%8d%8d%8.3f\n",
			r.Name, r.Time.Round(time.Microsecond), r.ShuffleRecords,
			r.LocalSkyTotal, r.PrunedCells, r.GlobalSkyline, r.Optimality)
	}
}
