// Package skyjob runs the skyline pipeline on an rpcmr cluster. What the
// partitioning job (assign → local skyline) and the merging job (the
// candidates sorted by coordinate sum and cut into groups, each killed by
// the rows at or below its sums → global skyline) compute, how the merge is
// cut, and the sequence they run in, are defined once, by package driver's
// PartitionJob, MergeJob, MergeInput and TwoJobs; this package is the
// cluster executor of that sequence: a Spec that travels to workers as JSON, and each job as a
// registered name run on a master over splits sealed into point frames on
// demand. Any process that links this package (master or worker) has every
// job registered and can participate in a cluster.
package skyjob

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/driver"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
	"repro/internal/telemetry"
)

// Job names in the rpcmr registry.
const (
	PartitionJobName = "skyline/partition"
	MergeJobName     = "skyline/merge"
)

// Spec is a job's params on the wire: the partition plan partition.Fit
// wrote — every worker builds it with the same partition.Plan.Build, so the
// cluster partitions a dataset as the in-process driver does — and what
// sizes the jobs' frames and folds.
type Spec struct {
	partition.Plan
	// Codec selects the frame wire codec on every worker: 0 keeps raw v1
	// frames, points.FrameAuto enables the bit-packed v2 encoding wherever
	// it is smaller.
	Codec points.FrameCodec `json:"codec,omitempty"`
	// ReducerBudgetBytes bounds the skyline window of every reduce task's
	// per-partition fold, on every worker: frames fold into it one at a
	// time, and a window that is full spills and multi-passes, so worker
	// reduce memory stays near the budget instead of scaling with a local
	// skyline's size. 0 is no bound: the window grows with the local
	// skyline and nothing spills. It sizes the fold; it selects nothing.
	ReducerBudgetBytes int64 `json:"reducer_budget_bytes,omitempty"`
}

// SpecFor fits a Spec to a dataset, following the paper's partition-count
// rule (2 × nodes) when partitions is given directly by the caller. Its plan
// is partition.Fit's — the one the in-process driver builds, sampled on a
// large input, exact on a small one. It reads the fit's sample only
// (MR-Grid's fit reads every row): the rows are validated as the master
// seals them into splits (setSplits). An invalid input is reported with
// points.Set.Validate's wording, which names its lowest offending row.
func SpecFor(data points.Set, scheme partition.Scheme, partitions int) (Spec, error) {
	plan, err := partition.Fit(scheme, data, partitions)
	if err != nil {
		return Spec{}, driver.InvalidInput("skyjob", data, err)
	}
	return Spec{Plan: plan}, nil
}

// build checks the spec and builds its plan's partitioner. A spec arrives
// over the wire, so a worker builds every spec it is handed before either
// job factory uses it: a bad one is a failed task, not a dead worker. The
// master builds it too, before it sends it.
func (s Spec) build() (partition.Partitioner, error) {
	switch {
	case s.Codec < points.FrameDefault || s.Codec > points.FrameAuto:
		return nil, fmt.Errorf("skyjob: unknown codec %d", int(s.Codec))
	case s.ReducerBudgetBytes < 0:
		return nil, fmt.Errorf("skyjob: negative reducer budget %d", s.ReducerBudgetBytes)
	}
	part, err := s.Build()
	if err != nil {
		return nil, fmt.Errorf("skyjob: %w", err)
	}
	return part, nil
}

func init() {
	rpcmr.RegisterJob(PartitionJobName, newPartitionJob)
	rpcmr.RegisterJob(MergeJobName, newMergeJob)
	rpcmr.RegisterJob(SkybandPartitionJobName, newSkybandPartitionJob)
	rpcmr.RegisterJob(SkybandMergeJobName, newSkybandMergeJob)
}

// The job factories: driver's job definitions, Job 1 and the merge, for the
// skyline (params are a Spec) and for the k-skyband (a skybandSpec).
var (
	newPartitionJob        = factory(false, partitionJob)
	newMergeJob            = factory(false, mergeJob)
	newSkybandPartitionJob = factory(true, partitionJob)
	newSkybandMergeJob     = factory(true, mergeJob)
)

func partitionJob(spec skybandSpec, part partition.Partitioner) mapreduce.FrameJob {
	return driver.PartitionJob(part, nil, len(spec.Min), spec.K, spec.options())
}

func mergeJob(spec skybandSpec, _ partition.Partitioner) mapreduce.FrameJob {
	return driver.MergeJob(len(spec.Min), spec.K)
}

// factory is the rpcmr factory of the job build makes of decodeSpec's spec
// and its partitioner, sealing its frames by the spec's codec.
func factory(band bool, build func(skybandSpec, partition.Partitioner) mapreduce.FrameJob) rpcmr.JobFactory {
	return func(params []byte) (rpcmr.Job, error) {
		spec, part, err := decodeSpec(params, band)
		if err != nil {
			return rpcmr.Job{}, err
		}
		return rpcmr.Job{FrameJob: build(spec, part), Codec: spec.Codec}, nil
	}
}

// decodeSpec parses job params — a Spec, or with band a skybandSpec (K
// stays 0, the skyline, otherwise) — and builds the spec's partitioner.
// Unknown fields are an error: a spec that still carries a retired knob
// (version skew between master and worker) or a misspelt field must fail the
// task, not run a job other than the one its sender meant.
func decodeSpec(params []byte, band bool) (skybandSpec, partition.Partitioner, error) {
	var spec skybandSpec
	into := any(&spec.Spec)
	if band {
		into = &spec
	}
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return spec, nil, fmt.Errorf("skyjob: bad params: %w", err)
	}
	part, err := spec.build()
	if err != nil {
		return spec, nil, err
	}
	if band && spec.K < 1 {
		return spec, nil, fmt.Errorf("skyjob: skyband k = %d, need >= 1", spec.K)
	}
	if band && spec.ReducerBudgetBytes > 0 {
		// The budgeted fold is a skyline fold: one dominator evicts a row.
		return spec, nil, errors.New("skyjob: k-skyband does not run under a reducer budget")
	}
	return spec, part, nil
}

// options carries the spec's share of what the job definitions read.
func (s Spec) options() driver.Options {
	return driver.Options{Codec: s.Codec, ReducerBudgetBytes: s.ReducerBudgetBytes}
}

// setSplits is an in-memory set as job input: split [lo, hi) is those rows
// as v1 frames, written from the set when the master sends them. Sizing a
// split is the one pass on the master that reads every row before it is
// sent, so it validates them (against row 0's dimension, as
// points.Set.Validate does): an invalid row fails the job as its split is
// handed out, before any of it is written, instead of failing every
// worker's attempt at the task in turn.
func setSplits(data points.Set) rpcmr.Input {
	d := data.Dim()
	return rpcmr.FrameRows(len(data), func(lo, hi int) (int, error) {
		return points.FrameRowsLen(0, hi-lo, d), data.ValidateRows(lo, hi, d)
	}, func(frames []byte, lo, hi int) ([]byte, error) {
		return points.AppendFrameRows(frames, 0, data[lo:hi])
	})
}

// blockSplits is a merging job's input: task t gets inputs[t], block after
// block, each one frame under codec, a split a block — the levels, its
// group, and the rows at or below the group's sums. It is a map task's
// input, booked as input bytes, not as shuffle: over K groups the
// candidates cross the wire about (K+1)/2 times.
func blockSplits(inputs [][]*points.Block, codec points.FrameCodec) rpcmr.Input {
	rows, blocks := make([]int, len(inputs)), make([]int, len(inputs))
	for t, list := range inputs {
		blocks[t] = len(list)
		for _, blk := range list {
			rows[t] += blk.Len()
		}
	}
	return rpcmr.WholeFrames(rows, blocks, func(task, block int) (int, error) {
		return points.FrameCodecLen(0, inputs[task][block], codec), nil
	}, func(frames []byte, task, block int) ([]byte, error) {
		return points.AppendFrameCodec(frames, 0, inputs[task][block], codec), nil
	})
}

// Result is the outcome of a distributed skyline computation.
type Result struct {
	Skyline points.Set
	// LocalSkylines maps partition id → local skyline (partition job
	// output).
	LocalSkylines map[int]points.Set
	// MapTime / ReduceTime are the two jobs' phases in the paper's Figure 6
	// sense — with one difference from the paper's Job 2: the merge is
	// map-only (every worker kills a group of the candidates with the rows
	// at or below its sums), so MapTime.MergeJob carries all of it and
	// ReduceTime.MergeJob is 0.
	MapTime, ReduceTime JobResultTiming
	// Stats is the run's whole record — counters, per-partition counts,
	// timing, the merge's round and groups — as driver.Compute returns it in
	// process.
	Stats *driver.Stats
}

// JobResultTiming is one phase's wall clock in each of the two jobs.
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
// children; with a registry on the master it publishes the run's gauges
// alongside the cluster's own series.
func Compute(ctx context.Context, master *rpcmr.Master, data points.Set, scheme partition.Scheme, partitions, reducers int) (*Result, error) {
	spec, err := SpecFor(data, scheme, partitions)
	if err != nil {
		return nil, err
	}
	return ComputeSpec(ctx, master, data, spec, reducers)
}

// ComputeSpec runs the pipeline with a caller-built Spec — the entry
// point for a non-default codec or reducer budget. The budget bounds
// the workers' reduce folds, and when the local skylines do not fit it
// the merging job's groups are budget-sized (driver.MergeInput): each
// worker task holds one group and a piece of the rows streamed past it;
// the master tests nothing.
func ComputeSpec(ctx context.Context, master *rpcmr.Master, data points.Set, spec Spec, reducers int) (*Result, error) {
	return compute(ctx, master, data, spec, spec, PartitionJobName, MergeJobName, reducers)
}

// cluster is the cluster executor of driver.TwoJobs: the registered jobs
// job1 over data, and job2 over the blocks it is handed, both instantiated
// by the workers from params.
type cluster struct {
	master     *rpcmr.Master
	data       points.Set
	job1, job2 string
	params     []byte
	reducers   int
	codec      points.FrameCodec
}

func (c cluster) run(ctx context.Context, span, job string, reducers int, input rpcmr.Input) (*mapreduce.FrameResult, error) {
	ctx, jobSpan := telemetry.StartSpan(ctx, span)
	defer jobSpan.End()
	res, err := c.master.Run(ctx, rpcmr.JobSpec{Name: job, Params: c.params, Reducers: reducers}, input)
	if err != nil {
		return nil, fmt.Errorf("skyjob: %s: %w", span, err)
	}
	return res, nil
}

func (c cluster) Partition(ctx context.Context) (*mapreduce.FrameResult, error) {
	return c.run(ctx, "partitioning-job", c.job1, c.reducers, setSplits(c.data))
}

func (c cluster) Merge(ctx context.Context, inputs [][]*points.Block) (*mapreduce.FrameResult, error) {
	return c.run(ctx, "merging-job", c.job2, 0, blockSplits(inputs, c.codec))
}

// compute is what ComputeSpec and ComputeSkyband are: driver.TwoJobs on the
// cluster executor, over the registered jobs job1 and job2 with wire — spec,
// or a skybandSpec around it — as their JSON params.
func compute(ctx context.Context, master *rpcmr.Master, data points.Set, spec Spec, wire any, job1, job2 string, reducers int) (*Result, error) {
	// The partitioners may round the requested count up to a regular shape
	// (e.g. angular split products): the run is accounted by the count the
	// built partitioner actually uses.
	part, err := spec.build()
	if err != nil {
		return nil, err
	}
	params, err := json.Marshal(wire)
	if err != nil {
		return nil, err
	}
	ctx, rootSpan := telemetry.StartSpan(ctx, fmt.Sprintf("skyline:%s", spec.Scheme),
		telemetry.A("scheme", fmt.Sprint(spec.Scheme)),
		telemetry.A("points", len(data)),
		telemetry.A("partitions", spec.Partitions))
	defer rootSpan.End()
	// The run's gauges land on what the master serves.
	opts := spec.options()
	opts.Scheme, opts.Workers, opts.Metrics = spec.Scheme, reducers, master.Metrics()
	exec := cluster{master: master, data: data, job1: job1, job2: job2, params: params, reducers: reducers, codec: spec.Codec}
	sky, stats, err := driver.TwoJobs(ctx, exec, len(spec.Min), part, nil, nil, opts)
	if err != nil {
		return nil, driver.InvalidInput("skyjob", data, err)
	}
	return &Result{
		Skyline:       sky,
		LocalSkylines: stats.LocalSkylines,
		MapTime:       JobResultTiming{stats.PartitionJob.Map.Seconds(), stats.MergeJob.Map.Seconds()},
		ReduceTime:    JobResultTiming{stats.PartitionJob.Reduce.Seconds(), stats.MergeJob.Reduce.Seconds()},
		Stats:         stats,
	}, nil
}
