package driver

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/skyline"
)

// A jobEdit is an ablation the way internal/experiments writes one: an edit
// of the value PartitionJob returns, run through InProcess and TwoJobs. The
// product has no knob for any of them.
type jobEdit func(*mapreduce.FrameJob)

// asIs edits nothing: the seam's own run of Job 1, which — handed no mask —
// prunes no grid cell.
func asIs(*mapreduce.FrameJob) {}

// noCombiner ships raw partition contents to the reducers.
func noCombiner(job *mapreduce.FrameJob) { job.Accumulators, job.Combiner = nil, nil }

// withKernel swaps Job 1's operator for a Set-typed kernel: staged rows and
// a block combiner map side, the kernel over each assembled partition
// reduce side (a budgeted job keeps its fold).
func withKernel(f skyline.Func) jobEdit {
	kernel := skyline.BlockKernel(f)
	return func(job *mapreduce.FrameJob) {
		job.Accumulators = nil
		job.Combiner = func(_ int, blk *points.Block) (*points.Block, error) { return kernel(blk), nil }
		if job.Reducer != nil {
			job.Reducer = blockReducer(kernel)
		}
	}
}

// computeEdited is Compute (band 0) or ComputeSkyband over an edited Job 1,
// unpruned, through the exported seam alone.
func computeEdited(ctx context.Context, data points.Set, band int, opts Options, edits ...jobEdit) (points.Set, *Stats, error) {
	opts = opts.withDefaults()
	part, err := partition.New(opts.Scheme, data, opts.Partitions)
	if err != nil {
		return nil, nil, err
	}
	dim := data.Dim()
	job := PartitionJob(part, nil, dim, band, opts)
	for _, edit := range edits {
		edit(&job)
	}
	return TwoJobs(ctx, InProcess(mapreduce.SetRows(data), job, dim, band, opts), dim, part, nil, nil, opts)
}

// TestPartitionJobShapes pins Job 1's routes: band picks between the
// skyline's windows and the band's staged block kernel, the reducer budget
// between a reducer and a fold, and nothing else picks anything.
func TestPartitionJobShapes(t *testing.T) {
	part, err := partition.New(partition.Angular, uniformSet(1, 200, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Options{
		{},
		{ReducerBudgetBytes: 4 << 10, SpillDir: t.TempDir(), Codec: points.FrameAuto},
		{Scheme: partition.Grid, Nodes: 9, Partitions: 3, Workers: 5, PartitionerOverride: part},
	} {
		for _, pruned := range [][]bool{nil, make([]bool, part.Partitions())} {
			job := PartitionJob(part, pruned, 3, 0, o)
			if job.Mapper == nil || job.TaskMapper != nil {
				t.Errorf("%+v: Job 1 is a row mapper; got %+v", o, job)
			}
			if job.Accumulators != bnlWindows || job.Combiner != nil {
				t.Errorf("%+v: the skyline folds into bnlWindows and stages nothing; got %+v", o, job)
			}
			if budgeted := o.ReducerBudgetBytes > 0; (job.Folder != nil) != budgeted || (job.Reducer != nil) == budgeted {
				t.Errorf("%+v: want a fold under a budget and a reducer without one; got %+v", o, job)
			}
			for _, k := range []int{1, 3} {
				band := PartitionJob(part, pruned, 3, k, o)
				if band.Accumulators != nil || band.Combiner == nil || band.Reducer == nil || band.Folder != nil {
					t.Errorf("%+v, k=%d: a band stages rows for a block combiner and reducer; got %+v", o, k, band)
				}
			}
		}
	}
}

// TestBuildIndexKeepsTheJobsPartitioner: the index is fitted once — its
// partitioner is the one its initial job ran on, not a second fit of the
// same data.
func TestBuildIndexKeepsTheJobsPartitioner(t *testing.T) {
	data := uniformSet(9, 2000, 4)
	for _, scheme := range allSchemes() {
		opts := Options{Scheme: scheme, Nodes: 4}
		global, stats, part, err := compute(context.Background(), data, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if part == nil || part.Partitions() != stats.Partitions {
			t.Fatalf("%v: compute returned partitioner %v for a %d-partition run", scheme, part, stats.Partitions)
		}
		ix, err := BuildIndex(context.Background(), data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ix.part, part) {
			t.Errorf("%v: index partitioner %+v, the job's %+v", scheme, ix.part, part)
		}
		if ix.Partitions() != stats.Partitions || !sameMultiset(ix.Global(), global) {
			t.Errorf("%v: index has %d partitions and %d skyline points, the job %d and %d",
				scheme, ix.Partitions(), len(ix.Global()), stats.Partitions, len(global))
		}
		// Every local skyline sits in the shard the index's partitioner
		// assigns it to: the partitioner and the shards are one fit's.
		for id := 0; id < ix.Partitions(); id++ {
			for _, p := range ix.LocalSkyline(id) {
				if got, err := ix.part.Assign(p); err != nil || got != id {
					t.Fatalf("%v: local skyline point of shard %d assigns to %d (%v)", scheme, id, got, err)
				}
			}
		}
	}
	// A supplied partitioner is the job's, so it is the index's.
	hybrid, err := partition.FitAngularRadial(data, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(context.Background(), data, Options{Scheme: partition.Angular, PartitionerOverride: hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if ix.part != partition.Partitioner(hybrid) {
		t.Errorf("index partitioner %v, want the job's %v", ix.part, hybrid)
	}
}
