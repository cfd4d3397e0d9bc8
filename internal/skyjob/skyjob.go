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
	"math"
	"slices"

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

// Spec parameterizes the partitioning job; it travels to workers as JSON
// so every worker reconstructs an identical partitioner.
type Spec struct {
	Scheme     partition.Scheme `json:"scheme"`
	Dim        int              `json:"dim"`
	Min        []float64        `json:"min"`
	Max        []float64        `json:"max"`
	Partitions int              `json:"partitions"`
	// AngularSplits and AngularCuts ship a fitted (equi-depth) angular
	// partitioner to workers; empty for other schemes.
	AngularSplits []int         `json:"angular_splits,omitempty"`
	AngularCuts   [][][]float64 `json:"angular_cuts,omitempty"`
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
// rule (2 × nodes) when partitions is given directly by the caller. The fit
// is partition.Fit's — the one the in-process driver makes, sampled on a
// large input, exact on a small one — and Min and Max are its box, so the
// cluster and driver.Compute partition a dataset alike. It reads the fit's
// sample only (MR-Grid's fit reads every row): the rows are validated as the
// master seals them into splits (setSplits). An invalid input is reported
// with points.Set.Validate's wording, which names its lowest offending row.
func SpecFor(data points.Set, scheme partition.Scheme, partitions int) (Spec, error) {
	part, min, max, err := partition.Fit(scheme, data, partitions)
	if err != nil {
		return Spec{}, driver.InvalidInput("skyjob", data, err)
	}
	spec := Spec{
		Scheme:     scheme,
		Dim:        data.Dim(),
		Min:        min,
		Max:        max,
		Partitions: partitions,
	}
	if ap, ok := part.(*partition.AngularPartitioner); ok {
		spec.AngularSplits = ap.Splits()
		spec.AngularCuts = ap.Cuts()
	}
	return spec, nil
}

// validate rejects a spec no honest SpecFor could have produced. A spec
// arrives over the wire, so every value a job would otherwise trust — enum
// members it switches on, counts it allocates by, bounds it divides by —
// is checked here, once, before Build or either job factory uses it: a
// worker must report a bad spec as a failed task, not die on it.
func (s Spec) validate() error {
	switch {
	case s.Scheme < partition.Dimensional || s.Scheme > partition.Random:
		return fmt.Errorf("skyjob: unknown scheme %d", int(s.Scheme))
	case s.Codec < points.FrameDefault || s.Codec > points.FrameAuto:
		return fmt.Errorf("skyjob: unknown codec %d", int(s.Codec))
	case s.Dim < 1:
		return fmt.Errorf("skyjob: spec dimension %d, need >= 1", s.Dim)
	case s.Partitions < 1 || s.Partitions > driver.MaxPartitions:
		return fmt.Errorf("skyjob: %d partitions, need 1..%d", s.Partitions, driver.MaxPartitions)
	case s.ReducerBudgetBytes < 0:
		return fmt.Errorf("skyjob: negative reducer budget %d", s.ReducerBudgetBytes)
	case len(s.Min) != s.Dim || len(s.Max) != s.Dim:
		return fmt.Errorf("skyjob: spec bounds dimension mismatch")
	}
	for i := range s.Min {
		lo, hi := s.Min[i], s.Max[i]
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) || lo > hi {
			return fmt.Errorf("skyjob: spec bounds [%g, %g] in dimension %d", lo, hi, i)
		}
	}
	cells := 1
	for _, n := range s.AngularSplits {
		if n < 1 || n > driver.MaxPartitions/cells {
			return fmt.Errorf("skyjob: angular splits %v exceed %d partitions", s.AngularSplits, driver.MaxPartitions)
		}
		cells *= n
	}
	return nil
}

// Build reconstructs the partitioner described by the spec.
func (s Spec) Build() (partition.Partitioner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	min, max := points.Point(s.Min), points.Point(s.Max)
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

func partitionJob(spec skybandSpec) (mapreduce.FrameJob, error) {
	part, err := spec.Build()
	if err != nil {
		return mapreduce.FrameJob{}, err
	}
	return driver.PartitionJob(part, nil, spec.Dim, spec.K, spec.options()), nil
}

func mergeJob(spec skybandSpec) (mapreduce.FrameJob, error) {
	return driver.MergeJob(spec.Dim, spec.K), nil
}

// factory is the rpcmr factory of the job build makes of decodeSpec's spec,
// sealing its frames by the spec's codec.
func factory(band bool, build func(skybandSpec) (mapreduce.FrameJob, error)) rpcmr.JobFactory {
	return func(params []byte) (rpcmr.Job, error) {
		spec, err := decodeSpec(params, band)
		if err != nil {
			return rpcmr.Job{}, err
		}
		job, err := build(spec)
		if err != nil {
			return rpcmr.Job{}, err
		}
		return rpcmr.Job{FrameJob: job, Codec: spec.Codec}, nil
	}
}

// decodeSpec parses and validates job params: a Spec, or with band a
// skybandSpec — K stays 0, the skyline, otherwise. Unknown fields are an
// error: a spec that still carries a retired knob (version skew between
// master and worker) or a misspelt field must fail the task, not run a job
// other than the one its sender meant.
func decodeSpec(params []byte, band bool) (skybandSpec, error) {
	var spec skybandSpec
	into := any(&spec.Spec)
	if band {
		into = &spec
	}
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return spec, fmt.Errorf("skyjob: bad params: %w", err)
	}
	if err := spec.validate(); err != nil {
		return spec, err
	}
	if band && spec.K < 1 {
		return spec, fmt.Errorf("skyjob: skyband k = %d, need >= 1", spec.K)
	}
	if band && spec.ReducerBudgetBytes > 0 {
		// The budgeted fold is a skyline fold: one dominator evicts a row.
		return spec, errors.New("skyjob: k-skyband does not run under a reducer budget")
	}
	return spec, nil
}

// options carries the spec's share of what the job definitions read.
func (s Spec) options() driver.Options {
	return driver.Options{Codec: s.Codec, ReducerBudgetBytes: s.ReducerBudgetBytes}
}

// setSplits is an in-memory set as job input: split [lo, hi) is those rows
// as v1 frames, encoded from the set when the master asks for them, into the
// buffer it lends. The seal is the one pass on the master that reads every
// row, so it validates them (against row 0's dimension, as
// points.Set.Validate does): an invalid row fails the job at its split's
// seal instead of failing every worker's attempt at the task in turn.
func setSplits(data points.Set) rpcmr.Input {
	d := data.Dim()
	return rpcmr.FrameRows(len(data), func(frames []byte, lo, hi int) ([]byte, error) {
		// Payload + headers at once: a job's first splits do not grow by
		// doubling, and its later ones find the room already there.
		frames = slices.Grow(frames, (hi-lo)*(d*8+1)+16)
		var err error
		for ; lo < hi && err == nil; lo += mapreduce.WalkRows {
			end := min(lo+mapreduce.WalkRows, hi)
			if err = data.ValidateRows(lo, end, d); err == nil {
				frames, err = points.AppendFrameRows(frames, 0, data[lo:end])
			}
		}
		return frames, err
	})
}

// blockSplits is a merging job's input: task t gets inputs[t], block after
// block, sealed as they are, a split a block — the levels, its group, and
// the rows at or below the group's sums. It is a map task's input, booked as
// input bytes, not as shuffle: over K groups the candidates cross the wire
// about (K+1)/2 times.
func blockSplits(inputs [][]*points.Block, codec points.FrameCodec) rpcmr.Input {
	rows, blocks := 0, make([]int, len(inputs))
	for t, list := range inputs {
		blocks[t] = len(list)
		for _, blk := range list {
			rows += blk.Len()
		}
	}
	return rpcmr.WholeFrames(rows, blocks, func(frames []byte, task, block int) ([]byte, error) {
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
	part, err := spec.Build()
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
	// The run is narrated to, and its gauges land on, what the master serves.
	if ev := master.Events(); ev != nil {
		ctx = telemetry.WithEventLog(ctx, ev)
	}
	opts := spec.options()
	opts.Scheme, opts.Workers, opts.Metrics = spec.Scheme, reducers, master.Metrics()
	exec := cluster{master: master, data: data, job1: job1, job2: job2, params: params, reducers: reducers, codec: spec.Codec}
	sky, stats, err := driver.TwoJobs(ctx, exec, spec.Dim, part, nil, nil, opts)
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
