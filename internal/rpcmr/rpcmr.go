// Package rpcmr is a distributed MapReduce engine over net/rpc: a Master
// that owns job state and Workers that connect over TCP, pull tasks,
// execute registered job code, and report results — the multi-machine
// counterpart of the in-process engine in package mapreduce, standing in
// for a real Hadoop deployment.
//
// Because functions cannot cross the wire, jobs are code-addressed: both
// master and worker processes link the same binary (or at least the same
// job registry) and refer to jobs by registered name; per-job parameters
// travel as an opaque byte blob.
//
// Fault tolerance: every call from a worker is a heartbeat, and a worker
// silent for three liveness windows is dead. The master re-queues the task
// a worker held once it is dead or asks for work again; duplicate
// completions are resolved first-writer-wins, which is safe because tasks
// are deterministic and side-effect free.
package rpcmr

import (
	"encoding/gob"
	"fmt"
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/points"
	"repro/internal/telemetry"
)

func init() {
	// SpanData attrs cross the wire as interface values; register the
	// concrete types spans actually carry so gob can encode them.
	gob.Register(int(0))
	gob.Register(int64(0))
	gob.Register(uint64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(false)
}

// Job bundles the user code of one MapReduce job: what the in-process
// engine would run, plus the codec workers seal their frames with. Input,
// shuffle and output all move as sealed point frames.
type Job struct {
	// FrameJob is the whole of the job. Its Feed is not read — the master
	// feeds each map task its split as a frame stream (see FrameRows).
	FrameJob mapreduce.FrameJob
	// Codec selects the wire codec of the frames workers seal (map and
	// reduce output): the zero value keeps raw v1 frames, points.FrameAuto
	// bit-packs wherever that is smaller.
	Codec points.FrameCodec
}

// JobFactory instantiates a job from its parameter blob.
type JobFactory func(params []byte) (Job, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]JobFactory)
)

// RegisterJob installs a named job factory. Both the master and every
// worker must register the same names (typically from an init function in
// a shared package). Registering a duplicate name panics, as that is a
// deployment bug.
func RegisterJob(name string, factory JobFactory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("rpcmr: duplicate job registration: " + name)
	}
	if factory == nil {
		panic("rpcmr: nil factory for job " + name)
	}
	registry[name] = factory
}

// lookupJob instantiates a registered job.
func lookupJob(name string, params []byte) (Job, error) {
	registryMu.RLock()
	factory, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return Job{}, fmt.Errorf("rpcmr: unknown job %q", name)
	}
	job, err := factory(params)
	if err != nil {
		return Job{}, fmt.Errorf("rpcmr: instantiating job %q: %w", name, err)
	}
	if _, err := job.FrameJob.Check(); err != nil {
		return Job{}, fmt.Errorf("rpcmr: job %q: %w", name, err)
	}
	return job, nil
}

// resetRegistryForTest clears the registry (tests only).
func resetRegistryForTest() {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry = make(map[string]JobFactory)
}

// ---------------------------------------------------------------------------
// Wire types

// TaskKind discriminates what a worker has been handed.
type TaskKind int

const (
	// TaskWait says there is nothing to hand out. On a report's reply it
	// sends the worker to RequestTask, which the master holds until there
	// is; as RequestTask's own answer it means a hold ran out, and the
	// worker pauses WorkerConfig.PollInterval before asking again.
	TaskWait TaskKind = iota
	// TaskMap carries a map task — a worker's share of the input splits,
	// the first of them as a frame stream — to map and combine.
	TaskMap
	// TaskReduce carries one reducer's frame streams to reduce.
	TaskReduce
	// TaskShutdown tells the worker its master has no more work ever.
	TaskShutdown
)

// RegisterArgs announces a worker.
type RegisterArgs struct {
	WorkerID string
}

// RegisterReply acknowledges registration.
type RegisterReply struct {
	OK bool
}

// TaskArgs requests work.
type TaskArgs struct {
	WorkerID string
	// gone, on the master, is the wire's signal that the connection the
	// request came over is lost (nil when the request came over none).
	gone chan struct{}
}

// TaskReply carries an assignment.
type TaskReply struct {
	Kind TaskKind
	// Job numbers the master's jobs. A task's report echoes it, so that a
	// report still on its way when the job ended — two tasks of a doomed job
	// failing at once — is not taken for the next job's task of the same id.
	Job      uint64
	TaskID   int
	Attempt  int
	JobName  string
	Params   []byte
	Reducers int
	// Splits, on a map task, is how many splits its share is. Frames
	// carries the first; the worker fetches each of the others with
	// Master.NextSplit, whose reply is a TaskReply too, once it has walked
	// the one before.
	Splits int
	// Map payload: a split as one sealed frame stream. Like every frame
	// payload it crosses outside gob, in the message's payload section (see
	// wire), into the memory the receiver's TaskReply already has.
	Frames []byte
	// Reduce payload: sealed frame streams for this reducer, one per
	// contributing map task, in map-task order.
	FrameStreams [][]byte
	// TraceID, ParentSpan and Track propagate the master's trace to the
	// worker: a non-zero TraceID asks the worker to record its task span
	// tree (rooted under ParentSpan, pinned to Chrome-trace row Track) and
	// ship it back on the result report, stitching one cross-process
	// timeline. Zero means tracing is off.
	TraceID    uint64
	ParentSpan uint64
	Track      int
	// onSent, on the master, is called by the wire once the response that
	// carries this reply has been written or could not be: what the reply
	// borrowed — a split buffer, a place among the held requests — goes
	// back. A reply that crosses no wire never calls it.
	onSent func()
}

// sent runs onSent, once.
func (t *TaskReply) sent() {
	if f := t.onSent; f != nil {
		t.onSent = nil
		f()
	}
}

// emptied returns the reply as the destination of a next one: zero — gob
// leaves alone the fields a message omits — but for the capacity of its
// payload slots, which the next payloads are read into. The payloads it
// held must be dead.
func (t TaskReply) emptied() TaskReply {
	return TaskReply{Frames: t.Frames[:0], FrameStreams: t.FrameStreams[:0]}
}

// SplitArgs asks for split Split (1 … TaskReply.Splits − 1) of the map task
// the worker holds, named by its job, id and attempt, echoed.
type SplitArgs struct {
	WorkerID string
	Job      uint64
	TaskID   int
	Attempt  int
	Split    int
}

// ResultArgs reports a finished task of either kind: its output, or why
// it failed.
type ResultArgs struct {
	Kind     TaskKind // TaskReply.Kind, echoed
	WorkerID string
	Job      uint64 // TaskReply.Job, echoed
	TaskID   int
	Attempt  int
	// Frames is the task's output as sealed frame streams: a map task's one
	// batched payload per reducer, Frames[r] destined for reducer r, or the
	// one output stream of a reduce task, or a task job's map task's one
	// frame, of partition TaskID.
	Frames [][]byte
	// Err is a non-empty string if the task failed on the worker.
	Err string
	// Spans is the worker-side span tree of this task (worker-local IDs;
	// the master remaps them on import). Only successful reports carry
	// spans, so a retried task contributes exactly one span tree to the
	// stitched trace. TraceID echoes TaskReply.TraceID so stale reports
	// from a previous job cannot pollute the current trace.
	Spans   []telemetry.SpanData
	TraceID uint64
	// Stats is the task's tallies, as mapreduce.MapFrames or the reduce
	// returned them (reducer peak and fold passes among a reduce task's);
	// the master sums the accepted reports' into the job's result.
	Stats mapreduce.FrameStats
}

// ResultReply acknowledges a result report.
type ResultReply struct {
	// Accepted is false when the report was stale (task already completed
	// by another attempt) — informational only.
	Accepted bool
	// Next piggybacks the worker's next assignment on the report reply,
	// saving one RequestTask round-trip per completed task. The zero
	// value (Kind == TaskWait) sends the worker to RequestTask.
	Next TaskReply
}

// sent is Next's.
func (r *ResultReply) sent() { r.Next.sent() }
