// Package mapreduce is a from-scratch, in-process MapReduce engine — the
// stand-in for Hadoop in this reproduction. It executes a job as the
// classic phase pipeline
//
//	split → map → (combine) → shuffle → reduce
//
// over a pool of worker goroutines ("slave servers"), with per-phase
// wall-clock timing (the paper's Figure 6 breakdown), user and framework
// counters, and context cancellation. Intermediate data has one route: a map
// task's sealed frames stay in memory until the reduce tasks fold them, as
// they do on a cluster worker. What bounds a reduce task's memory is its
// fold (skyline.BudgetedFold, which overflows to disk itself), never the
// shuffle. A task runs once; retry is the cluster's (package rpcmr), where a
// worker can vanish and a second attempt can succeed.
//
// There is one engine, RunFrames (frame.go): a job's input is rows of
// float64 coordinates, its keys are integer partition ids, and everything
// between phases is a packed point frame (package points) — no string
// keys and no per-point record anywhere. What a job computes is a FrameJob
// value, which package rpcmr executes on a cluster unchanged.
package mapreduce

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fan"
	"repro/internal/points"
	"repro/internal/telemetry"
)

// Config controls job execution.
type Config struct {
	// Name labels the job in errors, spans and metrics.
	Name string
	// Workers is the number of concurrent map (and reduce) worker
	// goroutines — the cluster size of the simulated deployment.
	// Defaults to GOMAXPROCS.
	Workers int
	// Reducers is the number of reduce partitions. Defaults to Workers.
	Reducers int
	// Codec selects the wire codec of the sealed shuffle frames and of the
	// reduce tasks' output frames, in memory as on a cluster's wire. The
	// zero value is the raw v1 codec; points.FrameAuto enables the
	// bit-packed v2 encoding wherever it is smaller.
	Codec points.FrameCodec
	// Metrics, when non-nil, receives the job's framework counters and
	// per-phase latency histograms under the mr_* namespace after each
	// run. Nil (the default) costs nothing on the hot path.
	Metrics *telemetry.Registry
}

// withDefaults fills the unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Reducers <= 0 {
		c.Reducers = c.Workers
	}
	if c.Name == "" {
		c.Name = "job"
	}
	return c
}

// Timing is the per-phase wall-clock breakdown of one job.
type Timing struct {
	Map     time.Duration // map + combine (the paper's "Map time")
	Combine time.Duration // portion of Map spent in the combiner
	Shuffle time.Duration
	Reduce  time.Duration
	Total   time.Duration
}

// Add accumulates another job's timing (for multi-job pipelines).
func (t *Timing) Add(o Timing) {
	t.Map += o.Map
	t.Combine += o.Combine
	t.Shuffle += o.Shuffle
	t.Reduce += o.Reduce
	t.Total += o.Total
}

// Counters is a set of named int64 counters, safe for concurrent use.
// The framework maintains "mr.*" counters; user code may add its own via
// the Counters handle threaded through context (see WithCounters) or by
// closing over the struct.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]int64)} }

// Add increments counter name by delta.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the value of counter name (0 if never set).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Framework counter names.
const (
	CounterMapIn      = "mr.map.records.in"
	CounterMapOut     = "mr.map.records.out"
	CounterCombineIn  = "mr.combine.records.in"
	CounterCombineOut = "mr.combine.records.out"
	CounterShuffle    = "mr.shuffle.records"
	// CounterShuffleBytes counts the payload bytes crossing the shuffle —
	// frame bytes, header + coordinates — never the transport envelope
	// (gob framing, RPC headers), so in-process and rpcmr runs, and the
	// paper's Fig. 6 shuffle volumes, compare like-for-like.
	CounterShuffleBytes = "mr.shuffle.bytes"
	// CounterOutputBytes counts the payload bytes a map-only job's tasks
	// sealed: its output, in the same units, which crosses no shuffle and so
	// is never booked as mr.shuffle.bytes.
	CounterOutputBytes = "mr.output.bytes"
	CounterReduceIn    = "mr.reduce.records.in"
	CounterReduceOut   = "mr.reduce.records.out"
	CounterGroups      = "mr.reduce.groups"
	// CounterMapRetries and CounterRedRetries count re-queued tasks; only
	// rpcmr's master books them — an in-process task runs once.
	CounterMapRetries = "mr.map.task.retries"
	CounterRedRetries = "mr.reduce.task.retries"
	// CounterWorkerFailures counts tasks lost with their worker — it went
	// dead, or asked for work again, while holding them — each also a retry
	// of that task. Only an executor whose
	// workers can vanish (rpcmr) books it.
	CounterWorkerFailures = "mr.worker.failures"
	// CounterStragglers counts accepted task completions that took more
	// than twice their phase's median — rpcmr's straggler rule. Only
	// rpcmr's master books it, and it is timing, not data: two runs of
	// one job may differ in it.
	CounterStragglers = "mr.task.stragglers"
)

// bridgeCounters folds one finished job's counters and phase timings
// into the telemetry registry: counter names translate 1:1 from the
// dotted framework names ("mr.map.records.in" →
// "mr_map_records_in_total"), phase wall times land in the
// mr_phase_seconds histogram, and every series carries a job label.
func bridgeCounters(cfg Config, counters *Counters, timing Timing) {
	reg := cfg.Metrics
	if reg == nil {
		return
	}
	job := telemetry.L("job", cfg.Name)
	for name, v := range counters.Snapshot() {
		reg.Counter(strings.ReplaceAll(name, ".", "_")+"_total", job).Add(v)
	}
	buckets := telemetry.DurationBuckets()
	for _, p := range []struct {
		phase string
		d     time.Duration
	}{
		{"map", timing.Map},
		{"combine", timing.Combine},
		{"shuffle", timing.Shuffle},
		{"reduce", timing.Reduce},
		{"total", timing.Total},
	} {
		reg.Histogram("mr_phase_seconds", buckets, job, telemetry.L("phase", p.phase)).Observe(p.d.Seconds())
	}
	reg.Counter("mr_jobs_total", job).Inc()
}

// runTasks executes fn(worker, 0..n-1) on `workers` goroutines (fan.Out),
// each taking the next task in order until none is left, and returns the
// first error, or ctx's: no task starts once one has failed or ctx is done.
// The worker index identifies the executing pool slot, so callers can
// build per-worker timelines.
func runTasks(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	var next atomic.Int64
	var failOnce sync.Once
	var first error
	fan.Out(min(workers, n), func(worker int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			err := ctx.Err()
			if err == nil {
				err = fn(worker, i)
			}
			if err != nil {
				failOnce.Do(func() { first = err })
				next.Store(int64(n))
				return
			}
		}
	})
	if first == nil {
		first = ctx.Err()
	}
	return first
}
