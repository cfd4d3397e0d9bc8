// Package skyjob defines the distributed skyline MapReduce jobs for the
// rpcmr engine: the partitioning job (assign → local skyline) and the
// merging job (single key → global skyline), mirroring the in-process
// pipeline of package driver. Any process that links this package (master
// or worker) has both jobs registered and can participate in a cluster.
package skyjob

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// Job names in the rpcmr registry.
const (
	PartitionJobName = "skyline/partition"
	MergeJobName     = "skyline/merge"
)

// Spec parameterizes the partitioning job; it travels to workers as JSON
// so every worker reconstructs an identical partitioner.
type Spec struct {
	Scheme     partition.Scheme `json:"scheme"`
	Dim        int              `json:"dim"`
	Min        []float64        `json:"min"`
	Max        []float64        `json:"max"`
	Partitions int              `json:"partitions"`
	// Kernel selects the sequential skyline algorithm (default BNL).
	Kernel skyline.Algorithm `json:"kernel"`
	// ClassicKernel forces the classic points.Set kernels on every worker
	// instead of the default flat block path (contiguous coordinates,
	// dimension-specialized dominance, merge-tree global reduce). Both
	// paths produce identical skylines.
	ClassicKernel bool `json:"classic_kernel,omitempty"`
	// ClassicShuffle forces the per-WirePair gob transport instead of the
	// default block-framed shuffle (batched point frames, integer
	// partition routing). Implied by ClassicKernel — frames only exist on
	// the flat path. The spec travels to every worker, so one flag flips
	// the whole cluster consistently.
	ClassicShuffle bool `json:"classic_shuffle,omitempty"`
	// AngularSplits and AngularCuts ship a fitted (equi-depth) angular
	// partitioner to workers; empty for other schemes.
	AngularSplits []int         `json:"angular_splits,omitempty"`
	AngularCuts   [][][]float64 `json:"angular_cuts,omitempty"`
	// Codec selects the frame wire codec on every worker: 0 keeps raw v1
	// frames, points.FrameAuto enables the bit-packed v2 encoding wherever
	// it is smaller. Framed path only.
	Codec points.FrameCodec `json:"codec,omitempty"`
	// ReducerBudgetBytes, when > 0, switches framed reduce tasks to the
	// memory-budgeted streaming fold on every worker: frames fold one at a
	// time into a bounded skyline window that spills and multi-passes when
	// a local skyline outgrows it, so worker reduce memory stays near the
	// budget instead of scaling with partition size.
	ReducerBudgetBytes int64 `json:"reducer_budget_bytes,omitempty"`
}

// SpecFor fits a Spec to a dataset, following the paper's partition-count
// rule (2 × nodes) when partitions is given directly by the caller. The
// angular cuts are those of partition.New — the deterministic sampled fit
// the in-process driver uses, exact on small inputs — so the cluster and
// driver.Compute partition a dataset alike.
func SpecFor(data points.Set, scheme partition.Scheme, partitions int) (Spec, error) {
	min, max, err := data.ValidateBounds()
	if err != nil {
		return Spec{}, fmt.Errorf("skyjob: %w", err)
	}
	spec := Spec{
		Scheme:     scheme,
		Dim:        data.Dim(),
		Min:        min,
		Max:        max,
		Partitions: partitions,
	}
	if scheme == partition.Angular {
		part, err := partition.New(scheme, data, partitions)
		if err != nil {
			return Spec{}, err
		}
		ap := part.(*partition.AngularPartitioner)
		spec.AngularSplits = ap.Splits()
		spec.AngularCuts = ap.Cuts()
	}
	return spec, nil
}

// Build reconstructs the partitioner described by the spec.
func (s Spec) Build() (partition.Partitioner, error) {
	min, max := points.Point(s.Min), points.Point(s.Max)
	if len(min) != s.Dim || len(max) != s.Dim {
		return nil, fmt.Errorf("skyjob: spec bounds dimension mismatch")
	}
	switch s.Scheme {
	case partition.Dimensional:
		return partition.NewDimensional(0, min[0], max[0], s.Partitions, s.Dim)
	case partition.Grid:
		return partition.NewGrid(min, max, s.Partitions)
	case partition.Angular:
		if s.AngularSplits != nil {
			return partition.NewAngularWithCuts(min, s.AngularSplits, s.AngularCuts)
		}
		return partition.NewAngular(min, s.Dim, s.Partitions)
	case partition.Random:
		return partition.NewRandom(s.Dim, s.Partitions)
	default:
		return nil, fmt.Errorf("skyjob: unknown scheme %d", int(s.Scheme))
	}
}

func init() {
	rpcmr.RegisterJob(PartitionJobName, newPartitionJob)
	rpcmr.RegisterJob(MergeJobName, newMergeJob)
}

// localReducer builds the local-skyline reducer of the spec's kernel
// path. On the default flat path the group's values decode straight into
// one contiguous block (no per-point allocation) and the block kernel's
// survivors are re-encoded from rows; ClassicKernel restores the original
// Set-typed decode-kernel-encode loop.
func (s Spec) localReducer() mapreduce.Reducer {
	if s.ClassicKernel {
		kernel := skyline.ByAlgorithm(s.Kernel)
		return mapreduce.ReducerFunc(func(key string, values [][]byte, emit mapreduce.Emit) error {
			set := make(points.Set, 0, len(values))
			for _, v := range values {
				p, err := points.Decode(v)
				if err != nil {
					return err
				}
				set = append(set, p)
			}
			for _, p := range kernel(set) {
				emit(key, points.Encode(p))
			}
			return nil
		})
	}
	kernel := skyline.BlockByAlgorithm(s.Kernel)
	return blockReducer(func(blk *points.Block) *points.Block { return kernel(blk) })
}

// mergeReducer is the merging job's final reducer: on the flat path the
// single "global" group runs the parallel merge tree (chunked block
// skylines folded pairwise across goroutines) instead of one sequential
// kernel pass; the classic path keeps the paper's single-reducer kernel.
func (s Spec) mergeReducer() mapreduce.Reducer {
	if s.ClassicKernel {
		return s.localReducer()
	}
	return blockReducer(func(blk *points.Block) *points.Block {
		return skyline.ParallelBlock(context.Background(), blk, 0)
	})
}

// blockReducer wraps a block kernel into the decode-into-block reducer
// shape shared by the flat-path jobs.
func blockReducer(kernel func(*points.Block) *points.Block) mapreduce.Reducer {
	return mapreduce.ReducerFunc(func(key string, values [][]byte, emit mapreduce.Emit) error {
		blk := points.NewBlock(0, len(values))
		for _, v := range values {
			if err := points.AppendDecode(blk, v); err != nil {
				return err
			}
		}
		sky := kernel(blk)
		for i := 0; i < sky.Len(); i++ {
			emit(key, points.Encode(points.Point(sky.Row(i))))
		}
		return nil
	})
}

// budgetedFold adapts skyline.BudgetedFold to the engine's FrameFold
// interface for worker-side streaming reduce (mirrors the driver's
// adapter; duplicated to keep skyjob free of the in-process driver).
type budgetedFold struct {
	partition int
	fold      *skyline.BudgetedFold
}

func (b *budgetedFold) Absorb(blk *points.Block) error { return b.fold.Absorb(blk) }

func (b *budgetedFold) Finish(emit mapreduce.EmitPoint) error {
	out, err := b.fold.Finish()
	if err != nil {
		return err
	}
	for i := 0; i < out.Len(); i++ {
		emit(b.partition, out.Row(i))
	}
	return nil
}

func (b *budgetedFold) PeakBytes() int64 { return b.fold.Stats().PeakBytes }
func (b *budgetedFold) Passes() int      { return b.fold.Stats().Passes }

// folder returns the spec's streaming FrameFolder, or nil when the spec
// is unbudgeted (keeping the assemble-everything reducers).
func (s Spec) folder() mapreduce.FrameFolder {
	if s.ReducerBudgetBytes <= 0 {
		return nil
	}
	dim, budget, codec := s.Dim, s.ReducerBudgetBytes, s.Codec
	return func(partition int) mapreduce.FrameFold {
		return &budgetedFold{partition: partition,
			fold: skyline.NewBudgetedFold(dim, budget, "", codec)}
	}
}

// bnlWindows recycles the default map-side combiner of both framed jobs:
// one incremental BNL window per partition, folded as records are routed
// (as in package driver; the pool is per package, the kind is the same).
var bnlWindows = mapreduce.NewAccumulators(func() mapreduce.Accumulator { return skyline.NewWindow() })

// mapSide picks a framed job's map-side combiner: incremental windows for
// BNL, and for the other kernels — which need the whole block — staged
// rows plus a block combiner.
func (s Spec) mapSide() (*mapreduce.Accumulators, mapreduce.FrameCombiner) {
	if s.Kernel == skyline.BNLAlgorithm {
		return bnlWindows, nil
	}
	kernel := skyline.BlockByAlgorithm(s.Kernel)
	return nil, func(_ int, blk *points.Block) (*points.Block, error) { return kernel(blk), nil }
}

// rowMapper is the FrameMapper of both framed jobs: it decodes each record
// into one reused row and hands the row to route. The row is this task's
// alone: rpcmr builds a job value per task it executes, and a task maps
// its records one after another.
func rowMapper(route func(row points.Point, emit mapreduce.EmitPoint) error) mapreduce.FrameMapper {
	var row points.Point
	return mapreduce.FrameMapperFunc(func(rec []byte, emit mapreduce.EmitPoint) error {
		var err error
		if row, err = points.DecodeInto(row, rec); err != nil {
			return err
		}
		return route(row, emit)
	})
}

// framed reports whether the spec selects the block-framed shuffle:
// frames pack flat blocks, so the classic kernel path implies the
// classic shuffle too.
func (s Spec) framed() bool { return !s.ClassicKernel && !s.ClassicShuffle }

func newPartitionJob(params []byte) (rpcmr.Job, error) {
	var spec Spec
	if err := json.Unmarshal(params, &spec); err != nil {
		return rpcmr.Job{}, fmt.Errorf("skyjob: bad params: %w", err)
	}
	part, err := spec.Build()
	if err != nil {
		return rpcmr.Job{}, err
	}
	if spec.framed() {
		kernel := skyline.BlockByAlgorithm(spec.Kernel)
		accs, combiner := spec.mapSide()
		return rpcmr.Job{
			FrameMapper: rowMapper(func(row points.Point, emit mapreduce.EmitPoint) error {
				id, err := part.Assign(row)
				if err != nil {
					return err
				}
				emit(id, row)
				return nil
			}),
			// The local-skyline combiner runs map-side, before the frames
			// are sealed for the wire.
			Accumulators:  accs,
			FrameCombiner: combiner,
			FrameReducer: mapreduce.FrameReducerFunc(func(partition int, blk *points.Block, emit mapreduce.EmitPoint) error {
				sky := kernel(blk)
				for i := 0; i < sky.Len(); i++ {
					emit(partition, sky.Row(i))
				}
				return nil
			}),
			FrameFolder: spec.folder(),
			Codec:       spec.Codec,
		}, nil
	}
	reducer := spec.localReducer()
	return rpcmr.Job{
		Mapper: mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) error {
			p, err := points.Decode(rec)
			if err != nil {
				return err
			}
			id, err := part.Assign(p)
			if err != nil {
				return err
			}
			emit(strconv.Itoa(id), rec)
			return nil
		}),
		Combiner: reducer,
		Reducer:  reducer,
	}, nil
}

func newMergeJob(params []byte) (rpcmr.Job, error) {
	var spec Spec
	if err := json.Unmarshal(params, &spec); err != nil {
		return rpcmr.Job{}, fmt.Errorf("skyjob: bad params: %w", err)
	}
	if spec.framed() {
		accs, combiner := spec.mapSide()
		return rpcmr.Job{
			FrameMapper: rowMapper(func(row points.Point, emit mapreduce.EmitPoint) error {
				emit(0, row) // paper line 13: output(null, si) — one global partition
				return nil
			}),
			Accumulators:  accs,
			FrameCombiner: combiner,
			FrameReducer: mapreduce.FrameReducerFunc(func(partition int, blk *points.Block, emit mapreduce.EmitPoint) error {
				sky := skyline.ParallelBlock(context.Background(), blk, 0)
				for i := 0; i < sky.Len(); i++ {
					emit(partition, sky.Row(i))
				}
				return nil
			}),
			FrameFolder: spec.folder(),
			Codec:       spec.Codec,
		}, nil
	}
	return rpcmr.Job{
		Mapper: mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) error {
			emit("global", rec)
			return nil
		}),
		Combiner: spec.localReducer(),
		Reducer:  spec.mergeReducer(),
	}, nil
}

// Result is the outcome of a distributed skyline computation.
type Result struct {
	Skyline points.Set
	// LocalSkylines maps partition id → local skyline (partition job
	// output).
	LocalSkylines map[int]points.Set
	// MapTime / ReduceTime aggregate the two jobs' phases in the paper's
	// Figure 6 sense: MapTime covers both jobs' map sides, ReduceTime
	// both jobs' reduce sides.
	MapTime, ReduceTime JobResultTiming
}

// JobResultTiming mirrors the rpcmr per-job split.
type JobResultTiming struct {
	PartitionJob, MergeJob float64 // seconds
}

// Optimality computes the paper's Eq. (5) local skyline optimality of the
// distributed run.
func (r *Result) Optimality() float64 {
	return metrics.LocalSkylineOptimality(r.LocalSkylines, r.Skyline)
}

// Compute runs the two-job skyline pipeline on a live rpcmr cluster.
// With a tracer in ctx it records a root span with Partitioning/Merging
// children; with a registry on the master it publishes per-partition
// local skyline sizes alongside the cluster's own series. The default
// spec routes both jobs through the block-framed shuffle; use
// ComputeSpec with Spec.ClassicShuffle (or ClassicKernel) to force the
// per-WirePair transport.
func Compute(ctx context.Context, master *rpcmr.Master, data points.Set, scheme partition.Scheme, partitions, reducers int) (*Result, error) {
	spec, err := SpecFor(data, scheme, partitions)
	if err != nil {
		return nil, err
	}
	return ComputeSpec(ctx, master, data, spec, reducers)
}

// ComputeSpec runs the pipeline with a caller-built Spec — the entry
// point for escape hatches (ClassicKernel, ClassicShuffle) and custom
// kernels.
func ComputeSpec(ctx context.Context, master *rpcmr.Master, data points.Set, spec Spec, reducers int) (*Result, error) {
	params, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ctx, rootSpan := telemetry.StartSpan(ctx, fmt.Sprintf("skyline:%s", spec.Scheme),
		telemetry.A("scheme", fmt.Sprint(spec.Scheme)),
		telemetry.A("points", len(data)),
		telemetry.A("partitions", spec.Partitions))
	defer rootSpan.End()
	rec := telemetry.RecorderFrom(ctx)
	// Pipeline narration goes to the master's event log (/debug/events);
	// every EventLog method is nil-safe, so no telemetry means no cost.
	ev := master.Events()
	if ev == nil {
		ev = telemetry.EventLogFrom(ctx)
	}
	ev.Info("pipeline start", telemetry.A("scheme", fmt.Sprint(spec.Scheme)),
		telemetry.A("points", len(data)), telemetry.A("partitions", spec.Partitions))
	// The partitioners may round the requested count up to a regular
	// shape (e.g. angular split products), so cover the count the built
	// partitioner actually uses — every planned partition appears in the
	// flight record even when it receives no data.
	if rec != nil {
		if p, err := spec.Build(); err == nil {
			rec.EnsurePartitions(p.Partitions())
		} else {
			rec.EnsurePartitions(spec.Partitions)
		}
	}
	input := make([][]byte, len(data))
	for i, p := range data {
		input[i] = points.Encode(p)
	}
	partCtx, partSpan := telemetry.StartSpan(ctx, "partitioning-job")
	res1, err := master.Run(partCtx, rpcmr.JobSpec{Name: PartitionJobName, Params: params, Reducers: reducers}, input)
	partSpan.End()
	if err != nil {
		return nil, fmt.Errorf("skyjob: partitioning job: %w", err)
	}
	local := make(map[int]points.Set)
	var mergeInput [][]byte
	if res1.Blocks != nil {
		// Frame path: local skylines arrive as per-partition blocks; feed
		// the merge job their rows in ascending partition order.
		ids := make([]int, 0, len(res1.Blocks))
		for id := range res1.Blocks {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			blk := res1.Blocks[id]
			local[id] = blk.ToSet()
			for i := 0; i < blk.Len(); i++ {
				mergeInput = append(mergeInput, points.Encode(points.Point(blk.Row(i))))
			}
		}
	} else {
		mergeInput = make([][]byte, 0, len(res1.Pairs))
		for _, pair := range res1.Pairs {
			id, err := strconv.Atoi(pair.Key)
			if err != nil {
				return nil, fmt.Errorf("skyjob: bad partition key %q", pair.Key)
			}
			p, err := points.Decode(pair.Value)
			if err != nil {
				return nil, err
			}
			local[id] = append(local[id], p)
			mergeInput = append(mergeInput, pair.Value)
		}
	}
	if reg := master.Metrics(); reg != nil {
		for id, ls := range local {
			reg.Gauge("skyline_partition_local_size",
				telemetry.L("partition", strconv.Itoa(id))).Set(float64(len(ls)))
		}
	}
	// Partition job evidence: shuffle volume per partition (frame path
	// reports it; the classic transport has no per-partition volume) and
	// local skyline sizes.
	for id, ps := range res1.Partitions {
		rec.AddPartitionShuffle(id, ps.Records, ps.Bytes)
	}
	for id, ls := range local {
		rec.SetLocalSkyline(id, len(ls))
	}
	ev.Info("partitioning job done",
		telemetry.A("local_skyline_points", len(mergeInput)),
		telemetry.A("partitions_hit", len(local)))
	mergeCtx, mergeSpan := telemetry.StartSpan(ctx, "merging-job")
	res2, err := master.Run(mergeCtx, rpcmr.JobSpec{Name: MergeJobName, Params: params, Reducers: 1}, mergeInput)
	mergeSpan.End()
	if err != nil {
		return nil, fmt.Errorf("skyjob: merging job: %w", err)
	}
	var sky points.Set
	if res2.Blocks != nil {
		if blk := res2.Blocks[0]; blk != nil {
			sky = blk.ToSet()
		}
	} else {
		sky = make(points.Set, 0, len(res2.Pairs))
		for _, pair := range res2.Pairs {
			p, err := points.Decode(pair.Value)
			if err != nil {
				return nil, err
			}
			sky = append(sky, p)
		}
	}
	if reg := master.Metrics(); reg != nil {
		reg.Gauge("skyline_global_size").Set(float64(len(sky)))
	}
	// Merge evidence: per-partition survivors (the Eq. (5) numerator) are
	// computed here, where local skylines and the global skyline are both
	// in hand, then the rollups are bridged into the master's registry.
	if rec != nil {
		for id, hits := range metrics.GlobalSurvivors(local, sky) {
			rec.SetGlobalSurvivors(id, hits)
		}
		rec.SetGlobalSkyline(len(sky))
		st := master.Status()
		rec.SetRetryCounts(st.TaskRetries, st.WorkerFailures)
		rec.Publish(master.Metrics())
	}
	ev.Info("pipeline end", telemetry.A("skyline_size", len(sky)))
	return &Result{
		Skyline:       sky,
		LocalSkylines: local,
		MapTime: JobResultTiming{
			PartitionJob: res1.MapTime.Seconds(),
			MergeJob:     res2.MapTime.Seconds(),
		},
		ReduceTime: JobResultTiming{
			PartitionJob: res1.ReduceTime.Seconds(),
			MergeJob:     res2.ReduceTime.Seconds(),
		},
	}, nil
}
