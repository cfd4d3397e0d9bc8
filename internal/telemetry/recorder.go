package telemetry

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The flight recorder assembles, for one skyline job, the per-partition
// and per-task evidence the paper's evaluation reads off-line — partition
// load (Figure 8's skew picture), local skyline sizes, shuffle volume,
// task wall times, and the Eq. (5) local-optimality ratio (Figure 7) —
// and rolls them up into skew and straggler signals a live cluster can
// alert on. Like the rest of the package it is off by default: a nil
// *Recorder no-ops on every method, and producers find the recorder via
// the context (WithRecorder / RecorderFrom), so library code pays one
// context lookup when recording is off.

// PartitionRecord is one partition's flight-record entry.
type PartitionRecord struct {
	// Partition is the data-space partition id (the paper's angular
	// sector, grid cell, or dimensional slice).
	Partition int `json:"partition"`
	// InputRecords counts the points routed to this partition by the map
	// phase (pre-combine) — the partition's load in the Figure 8 sense.
	InputRecords int64 `json:"input_records"`
	// ShuffleBytes counts the sealed frame payload bytes this partition
	// contributed to the shuffle (0 on the classic per-pair transport).
	ShuffleBytes int64 `json:"shuffle_bytes"`
	// LocalSkyline is the partition's local skyline size (job-1 output).
	LocalSkyline int `json:"local_skyline"`
	// GlobalSurvivors counts local skyline points that are also in the
	// global skyline — the numerator of the paper's Eq. (5) ratio.
	GlobalSurvivors int `json:"global_survivors"`
	// Optimality is GlobalSurvivors / LocalSkyline (0 when the local
	// skyline is empty): the paper's per-partition local optimality.
	Optimality float64 `json:"optimality"`
}

// TaskRecord is one completed cluster task, as observed by the rpcmr
// master (or any other engine that reports task completions).
type TaskRecord struct {
	Job     string `json:"job"`
	Kind    string `json:"kind"` // "map" or "reduce"
	Task    int    `json:"task"`
	Attempt int    `json:"attempt"`
	Worker  string `json:"worker,omitempty"`
	// Seconds is the task's wall time on its successful attempt.
	Seconds float64 `json:"seconds"`
	// Straggler marks a task that took more than twice its phase's median
	// task time (rpcmr's straggler rule).
	Straggler bool `json:"straggler,omitempty"`
}

// Skew summarizes partition load imbalance — the operational signal
// behind the paper's claim that angular partitioning balances load where
// grid and dimensional partitioning skew badly.
type Skew struct {
	// MaxLoad and MeanLoad are over per-partition loads (InputRecords
	// when known, falling back to local skyline sizes).
	MaxLoad  int64   `json:"max_load"`
	MeanLoad float64 `json:"mean_load"`
	// Imbalance is MaxLoad / MeanLoad; 1.0 is perfectly balanced.
	Imbalance float64 `json:"imbalance"`
	// Gini is the Gini coefficient of the load distribution: 0 for equal
	// loads, approaching 1 as one partition takes everything.
	Gini float64 `json:"gini"`
}

// Report is the serializable flight record of one skyline job.
type Report struct {
	Job             string            `json:"job"`
	Start           time.Time         `json:"start"`
	DurationSeconds float64           `json:"duration_seconds"`
	Partitions      []PartitionRecord `json:"partitions"`
	Tasks           []TaskRecord      `json:"tasks,omitempty"`
	Skew            Skew              `json:"skew"`
	// Optimality is the paper's Eq. (5): the mean, over partitions with a
	// non-empty local skyline, of the per-partition optimality ratio.
	Optimality    float64 `json:"optimality"`
	GlobalSkyline int     `json:"global_skyline"`
	// Stragglers counts tasks flagged by the master's straggler detector.
	Stragglers int64 `json:"stragglers"`
	// TaskRetries and WorkerFailures mirror rpcmr.Status so the recorder
	// JSON carries the retry/failure picture without a Prometheus scrape.
	TaskRetries    int64 `json:"task_retries"`
	WorkerFailures int64 `json:"worker_failures"`
	// MergeRounds counts the rounds of the out-of-core multi-round merge
	// schedule (0 when the merge ran as a single job).
	MergeRounds int `json:"merge_rounds,omitempty"`
	// MergeRoundBytes[i] is the candidate volume entering merge round i —
	// the per-round communication the MRC model bounds.
	MergeRoundBytes []int64 `json:"merge_round_bytes,omitempty"`
	// ReducerPeakBytes is the largest reducer-resident working set any
	// reduce task or merge fold reached: the number judged against the
	// run's reducer budget, reported by every run, budgeted or not.
	ReducerPeakBytes int64 `json:"reducer_peak_bytes,omitempty"`
}

// RunRecord is what one finished skyline run hands the recorder, all at
// once (Recorder.RecordRun): a record per planned partition — its id,
// input records, shuffle bytes, local skyline size and global survivors;
// Report works out the optimality ratio — and the run-wide numbers Report
// carries under the same names.
type RunRecord struct {
	Partitions       []PartitionRecord
	GlobalSkyline    int
	TaskRetries      int64
	WorkerFailures   int64
	MergeRoundBytes  []int64
	ReducerPeakBytes int64
}

// Recorder accumulates one job's flight record: task completions as the
// engine reports them (RecordTask), and the run's own numbers once it has
// finished (RecordRun). Safe for concurrent use; all methods no-op on a
// nil receiver.
type Recorder struct {
	mu         sync.Mutex
	job        string
	start      time.Time
	tasks      []TaskRecord
	stragglers int64
	run        RunRecord
}

// NewRecorder returns an empty recorder for the named job.
func NewRecorder(job string) *Recorder {
	return &Recorder{job: job, start: time.Now()}
}

type recorderKey struct{}

// WithRecorder installs rec as the context's flight recorder.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, rec)
}

// RecorderFrom returns the context's flight recorder; nil when recording
// is off.
func RecorderFrom(ctx context.Context) *Recorder {
	rec, _ := ctx.Value(recorderKey{}).(*Recorder)
	return rec
}

// RecordRun sets the finished run's numbers, replacing an earlier run's.
// The recorder keeps run's slices: the caller must not change them after.
func (r *Recorder) RecordRun(run RunRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.run = run
}

// RecordTask appends one completed task; straggler tasks also bump the
// straggler tally.
func (r *Recorder) RecordTask(t TaskRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tasks = append(r.tasks, t)
	if t.Straggler {
		r.stragglers++
	}
}

// Report assembles the current flight record: partitions sorted by id,
// per-partition optimality ratios, and the skew/optimality rollups.
// It may be called while the job is still running (the /debug handler
// does) — it snapshots whatever has been recorded so far.
func (r *Recorder) Report() *Report {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &Report{
		Job:              r.job,
		Start:            r.start,
		DurationSeconds:  time.Since(r.start).Seconds(),
		Partitions:       append(make([]PartitionRecord, 0, len(r.run.Partitions)), r.run.Partitions...),
		Tasks:            append([]TaskRecord(nil), r.tasks...),
		GlobalSkyline:    r.run.GlobalSkyline,
		Stragglers:       r.stragglers,
		TaskRetries:      r.run.TaskRetries,
		WorkerFailures:   r.run.WorkerFailures,
		MergeRounds:      len(r.run.MergeRoundBytes),
		MergeRoundBytes:  append([]int64(nil), r.run.MergeRoundBytes...),
		ReducerPeakBytes: r.run.ReducerPeakBytes,
	}
	sort.Slice(rep.Partitions, func(i, j int) bool { return rep.Partitions[i].Partition < rep.Partitions[j].Partition })
	sum, n := 0.0, 0
	loads := make([]float64, 0, len(rep.Partitions))
	haveInput := false
	for i := range rep.Partitions {
		p := &rep.Partitions[i]
		p.Optimality = 0
		if p.LocalSkyline > 0 {
			p.Optimality = float64(p.GlobalSurvivors) / float64(p.LocalSkyline)
			sum += p.Optimality
			n++
		}
		if p.InputRecords > 0 {
			haveInput = true
		}
	}
	if n > 0 {
		rep.Optimality = sum / float64(n)
	}
	// Load defaults to input records; classic rpcmr transports report no
	// per-partition volume, so fall back to local skyline sizes there.
	for _, p := range rep.Partitions {
		if haveInput {
			loads = append(loads, float64(p.InputRecords))
		} else {
			loads = append(loads, float64(p.LocalSkyline))
		}
	}
	rep.Skew = skewOf(loads)
	return rep
}

// skewOf computes max/mean/imbalance/Gini over per-partition loads.
func skewOf(loads []float64) Skew {
	var s Skew
	if len(loads) == 0 {
		return s
	}
	total := 0.0
	maxLoad := 0.0
	for _, v := range loads {
		total += v
		if v > maxLoad {
			maxLoad = v
		}
	}
	s.MaxLoad = int64(maxLoad)
	s.MeanLoad = total / float64(len(loads))
	if s.MeanLoad > 0 {
		s.Imbalance = maxLoad / s.MeanLoad
	}
	if total > 0 {
		// Mean absolute difference form: G = Σ_i Σ_j |x_i − x_j| / (2 n² μ).
		diff := 0.0
		for i := range loads {
			for j := range loads {
				d := loads[i] - loads[j]
				if d < 0 {
					d = -d
				}
				diff += d
			}
		}
		nn := float64(len(loads))
		s.Gini = diff / (2 * nn * nn * s.MeanLoad)
	}
	return s
}

// Publish bridges the record's rollups into a metrics registry, so the
// skew and optimality picture shows up in /metrics alongside the engine
// counters. Nil registries (or recorders) record nothing.
func (r *Recorder) Publish(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	rep := r.Report()
	reg.Gauge("skyline_load_max").Set(float64(rep.Skew.MaxLoad))
	reg.Gauge("skyline_load_mean").Set(rep.Skew.MeanLoad)
	reg.Gauge("skyline_load_imbalance").Set(rep.Skew.Imbalance)
	reg.Gauge("skyline_load_gini").Set(rep.Skew.Gini)
	reg.Gauge("skyline_local_optimality").Set(rep.Optimality)
	reg.Gauge("skyline_stragglers").Set(float64(rep.Stragglers))
	reg.Gauge("skyline_merge_rounds").Set(float64(rep.MergeRounds))
	reg.Gauge("skyline_reducer_peak_bytes").Set(float64(rep.ReducerPeakBytes))
	for _, p := range rep.Partitions {
		reg.Gauge("skyline_partition_optimality",
			L("partition", strconv.Itoa(p.Partition))).Set(p.Optimality)
	}
}
