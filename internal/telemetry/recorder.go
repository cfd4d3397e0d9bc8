package telemetry

import (
	"context"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The flight recorder holds, for one skyline job, the per-partition
// evidence the paper's evaluation reads off-line — partition load
// (Figure 8's skew picture), local skyline sizes, shuffle volume and the
// Eq. (5) local-optimality ratio (Figure 7) — with the skew rollup and
// the run's straggler, retry and failure counts a live cluster can alert
// on. Per-task times are not here: they are the task spans of the
// stitched trace, which the critical-path analysis reads. Like the rest
// of the package the recorder is off by default: a nil *Recorder no-ops
// on every method, and the pipeline finds it via the context
// (WithRecorder / RecorderFrom), so library code pays one context lookup
// when recording is off.

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

// Skew summarizes partition load imbalance — the operational signal
// behind the paper's claim that angular partitioning balances load where
// grid and dimensional partitioning skew badly.
type Skew struct {
	// MaxLoad and MeanLoad are over per-partition loads (InputRecords).
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
	Skew            Skew              `json:"skew"`
	// Optimality is the paper's Eq. (5): the mean, over partitions with a
	// non-empty local skyline, of the per-partition optimality ratio.
	Optimality    float64 `json:"optimality"`
	GlobalSkyline int     `json:"global_skyline"`
	// Stragglers counts tasks flagged by the master's straggler detector
	// (the job counter mapreduce.CounterStragglers).
	Stragglers int64 `json:"stragglers"`
	// TaskRetries and WorkerFailures mirror rpcmr.Status so the recorder
	// JSON carries the retry/failure picture without a Prometheus scrape.
	TaskRetries    int64 `json:"task_retries"`
	WorkerFailures int64 `json:"worker_failures"`
	// MergeRounds counts the merge rounds a reducer budget bound: 1 when
	// the local skylines exceeded it and the merge's groups were cut to
	// it, 0 when they fit.
	MergeRounds int `json:"merge_rounds,omitempty"`
	// MergeRoundBytes[i] is the candidate volume entering merge round i —
	// the per-round communication the MRC model bounds.
	MergeRoundBytes []int64 `json:"merge_round_bytes,omitempty"`
	// ReducerPeakBytes is the largest reducer-resident working set any
	// reduce task or merge task reached: the number judged against the
	// run's reducer budget, reported by every run, budgeted or not.
	ReducerPeakBytes int64 `json:"reducer_peak_bytes,omitempty"`
}

// Recorder holds one job's flight record: a Report whose run numbers
// arrive all at once when the run has finished (RecordRun). Safe for
// concurrent use; all methods no-op on a nil receiver.
type Recorder struct {
	mu   sync.Mutex
	rep  Report
	done bool
}

// NewRecorder returns an empty recorder for the named job.
func NewRecorder(job string) *Recorder {
	return &Recorder{rep: Report{Job: job, Start: time.Now()}}
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

// RecordRun finishes the record, replacing an earlier run's. run carries
// the finished run's own numbers: a record per planned partition (id,
// input records, shuffle bytes, local skyline size, global survivors),
// GlobalSkyline, Stragglers, TaskRetries, WorkerFailures, MergeRoundBytes
// and ReducerPeakBytes. The recorder fills in the rest once, here: the
// job and start it was made with, the duration up to now, partitions
// sorted by id with their optimality ratios, and the Eq. (5) and skew
// rollups. It keeps run's slices: the caller must not change them after.
func (r *Recorder) RecordRun(run Report) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	run.Job, run.Start = r.rep.Job, r.rep.Start
	run.DurationSeconds = time.Since(run.Start).Seconds()
	run.MergeRounds = len(run.MergeRoundBytes)
	sort.Slice(run.Partitions, func(i, j int) bool { return run.Partitions[i].Partition < run.Partitions[j].Partition })
	sum, n := 0.0, 0
	loads := make([]float64, len(run.Partitions))
	for i := range run.Partitions {
		p := &run.Partitions[i]
		p.Optimality = 0
		if p.LocalSkyline > 0 {
			p.Optimality = float64(p.GlobalSurvivors) / float64(p.LocalSkyline)
			sum += p.Optimality
			n++
		}
		loads[i] = float64(p.InputRecords)
	}
	run.Optimality = 0
	if n > 0 {
		run.Optimality = sum / float64(n)
	}
	run.Skew = skewOf(loads)
	r.rep, r.done = run, true
}

// Report returns a copy of the flight record. Before RecordRun — the
// /debug handler may ask while the job runs — it holds only the job and
// its elapsed time; after, the duration stays what RecordRun fixed.
func (r *Recorder) Report() *Report {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := r.rep
	if !r.done {
		rep.DurationSeconds = time.Since(rep.Start).Seconds()
	}
	rep.Partitions = append(make([]PartitionRecord, 0, len(rep.Partitions)), rep.Partitions...)
	rep.MergeRoundBytes = slices.Clone(rep.MergeRoundBytes)
	return &rep
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
