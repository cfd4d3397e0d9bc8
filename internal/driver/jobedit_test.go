package driver

import (
	"context"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/dataset"
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

// computeEdited is Compute (band 0) or ComputeSkyband over an edited Job 1,
// unpruned, through the exported seam alone.
func computeEdited(ctx context.Context, data points.Set, band int, opts Options, edits ...jobEdit) (points.Set, *Stats, error) {
	opts = opts.withDefaults()
	part, err := partition.New(opts.Scheme, data, opts.Partitions)
	if err != nil {
		return nil, nil, err
	}
	return computeOn(ctx, mapreduce.SetRows(data), data.Dim(), band, part, opts, edits...)
}

// computeOn runs the two jobs over feed on a partitioner the caller fitted,
// Job 1 edited and unpruned, through the exported seam alone — the route
// the experiments' hybrid-partitioner rows take.
func computeOn(ctx context.Context, feed mapreduce.RowFeed, dim, band int, part partition.Partitioner, opts Options, edits ...jobEdit) (points.Set, *Stats, error) {
	opts = opts.withDefaults()
	job := PartitionJob(part, nil, dim, band, opts)
	for _, edit := range edits {
		edit(&job)
	}
	return TwoJobs(ctx, InProcess(feed, job, dim, band, opts), dim, part, nil, nil, opts)
}

// TestPartitionJobShapes pins Job 1's routes: band picks between the
// skyline's windows and budgeted folds and the band's staged and assembled
// block kernel, and nothing else picks anything — the reducer budget sizes
// the skyline's fold, it does not choose it.
func TestPartitionJobShapes(t *testing.T) {
	part, err := partition.New(partition.Angular, uniformSet(1, 200, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Options{
		{},
		{ReducerBudgetBytes: 4 << 10, SpillDir: t.TempDir(), Codec: points.FrameAuto},
		{Scheme: partition.Grid, Nodes: 9, Partitions: 3, Workers: 5},
	} {
		for _, pruned := range [][]bool{nil, make([]bool, part.Partitions())} {
			job := PartitionJob(part, pruned, 3, 0, o)
			if job.Mapper == nil || job.TaskMapper != nil {
				t.Errorf("%+v: Job 1 is a row mapper; got %+v", o, job)
			}
			if job.Accumulators != bnlWindows || job.Combiner != nil {
				t.Errorf("%+v: the skyline folds into bnlWindows and stages nothing; got %+v", o, job)
			}
			if job.Folder == nil || !isBudgetedFold(job.Folder(0)) {
				t.Errorf("%+v: the skyline reduces through a BudgetedFold, whatever the budget; got %+v", o, job)
			}
			for _, k := range []int{1, 3} {
				band := PartitionJob(part, pruned, 3, k, o)
				if band.Accumulators != nil || band.Combiner == nil || band.Folder == nil || isBudgetedFold(band.Folder(0)) {
					t.Errorf("%+v, k=%d: a band stages rows and assembles frames for a block kernel; got %+v", o, k, band)
				}
			}
		}
	}
}

// isBudgetedFold reports whether fold is the skyline's, and closes it.
func isBudgetedFold(fold mapreduce.FrameFold) bool {
	bf, ok := fold.(*skyline.BudgetedFold)
	if ok {
		bf.Close()
	}
	return ok
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
}

// watchedFold is a Job 1 fold that looks into the directory its overflow
// would go to after every frame it absorbs and when it finishes.
type watchedFold struct {
	*skyline.BudgetedFold
	look func()
}

func (w watchedFold) Absorb(blk *points.Block) error {
	defer w.look()
	return w.BudgetedFold.Absorb(blk)
}

func (w watchedFold) Finish() (*points.Block, error) {
	defer w.look()
	return w.BudgetedFold.Finish()
}

// TestUnbudgetedReduceIsBlockBNL: a budget of 0 is no second route. Job 1's
// unbounded folds give, partition by partition and row for row in order,
// what the reducer this repository had before gave — skyline.BlockBNL over
// the assembled partition, here an edit of the job — with exactly as many
// dominance tests, in one pass, reporting what they held, and with no file
// in the temp directory at any point; and where the partition reaches the
// reducer from one map task, that is skyline.BlockBNL of the rows routed to
// it.
func TestUnbudgetedReduceIsBlockBNL(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // where a fold with no spill directory overflows to
	look := func() {
		if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
			t.Errorf("%d files in the temp directory (first: %v), err %v", len(left), left[:min(len(left), 1)], err)
		}
	}
	watched := func(job *mapreduce.FrameJob) {
		folder := job.Folder
		job.Folder = func(p int) mapreduce.FrameFold {
			return watchedFold{folder(p).(*skyline.BudgetedFold), look}
		}
	}
	assembledBNL := func(job *mapreduce.FrameJob) {
		job.Folder = mapreduce.Assembled(func(_ int, blk *points.Block) (*points.Block, error) {
			return skyline.BlockBNL(blk), nil
		})
	}
	// Duplicate-heavy: 3000 rows on a 10 × 10 × 10 grid, ties and equal rows
	// everywhere a window can meet them.
	coarse := uniformSet(62, 3000, 3)
	for _, p := range coarse {
		for i := range p {
			p[i] = math.Floor(p[i] / 10)
		}
	}
	for name, data := range map[string]points.Set{
		"uniform":         uniformSet(61, 3000, 4),
		"duplicates":      coarse,
		"anti-correlated": dataset.Generate(dataset.KindAnticorrelated, 63, 3000, 4),
	} {
		for _, workers := range []int{1, 3} {
			opts := Options{Scheme: partition.Angular, Nodes: 4, Workers: workers}
			got, stats, err := computeEdited(context.Background(), data, 0, opts, watched)
			if err != nil {
				t.Fatal(err)
			}
			want, parent, err := computeEdited(context.Background(), data, 0, opts, assembledBNL)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(stats.LocalSkylines, parent.LocalSkylines) {
				t.Errorf("%s, %d workers: the unbounded fold and BlockBNL over the assembled partition differ in a row or its place", name, workers)
			}
			if stats.DominanceTests != parent.DominanceTests || stats.DominanceTests == 0 {
				t.Errorf("%s, %d workers: %d dominance tests, the assembled route's %d", name, workers, stats.DominanceTests, parent.DominanceTests)
			}
			if stats.MergePasses != 1 || stats.ReducerPeakBytes <= 0 || stats.MergeRounds != 0 {
				t.Errorf("%s, %d workers: %d passes, a peak of %d bytes, %d merge rounds; want one pass, a peak, no round",
					name, workers, stats.MergePasses, stats.ReducerPeakBytes, stats.MergeRounds)
			}
			if workers > 1 {
				continue
			}
			// One map task: the reducer is handed each partition's window.
			part, err := partition.New(opts.Scheme, data, 8)
			if err != nil {
				t.Fatal(err)
			}
			routed := make(map[int]*points.Block)
			for _, p := range data {
				id, err := part.Assign(p)
				if err != nil {
					t.Fatal(err)
				}
				if routed[id] == nil {
					routed[id] = points.NewBlock(len(p), 0)
				}
				routed[id].AppendRow(p)
			}
			for id, blk := range routed {
				if want := skyline.BlockBNL(blk).ToSet(); !reflect.DeepEqual(stats.LocalSkylines[id], want) {
					t.Errorf("%s: partition %d's local skyline is not BlockBNL of its %d routed rows, row for row", name, id, blk.Len())
				}
			}
		}
	}
	look()
}
