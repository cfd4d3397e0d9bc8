package rpcmr

import (
	"context"
	"errors"
	"fmt"
	"net/rpc"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/telemetry"
)

// WorkerConfig tunes worker behaviour.
type WorkerConfig struct {
	// MasterAddr is the master's TCP address.
	MasterAddr string
	// ID labels this worker; defaults to a generated name.
	ID string
	// PollInterval is how long to pause after RequestTask answers TaskWait
	// — the master held the request as long as it would and had nothing to
	// hand out — before asking again. Defaults to 50ms. Nothing else a
	// worker does waits on it: job starts, phase changes and re-queued
	// tasks reach a worker parked on the master at once.
	PollInterval time.Duration
	// VanishAfterTasks, when > 0, makes the worker crash while *holding*
	// its next assigned task after completing that many: the task is
	// accepted but never executed or reported, and the worker falls silent
	// until the master's health sweep declares it dead and queues the task
	// again. 0 disables.
	VanishAfterTasks int
	// TaskStall, when > 0, sleeps that long before executing every task —
	// a controllable straggler for tests and the critpath experiment
	// (cmd/skybench -run critpath; the stall lands inside the task span, so
	// the profiler sees it as task time on this worker). 0 disables.
	TaskStall time.Duration
	// Metrics, when non-nil, receives worker-side series: per-kind task
	// counts (rpcmr_worker_tasks_total) and execution latency
	// (rpcmr_worker_task_seconds). Nil records nothing.
	Metrics *telemetry.Registry
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.PollInterval <= 0 {
		c.PollInterval = 50 * time.Millisecond
	}
	if c.ID == "" {
		c.ID = fmt.Sprintf("worker-%d", time.Now().UnixNano())
	}
	return c
}

// Worker pulls and executes tasks from a master until shut down.
type Worker struct {
	cfg    WorkerConfig
	client *rpc.Client

	mu        sync.Mutex
	completed int
}

// NewWorker connects to the master.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	cfg = cfg.withDefaults()
	client, err := dial(cfg.MasterAddr)
	if err != nil {
		return nil, fmt.Errorf("rpcmr: dialing master %s: %w", cfg.MasterAddr, err)
	}
	w := &Worker{cfg: cfg, client: client}
	var reply RegisterReply
	args := RegisterArgs{WorkerID: cfg.ID}
	if err := client.Call("Master.Register", &args, &reply); err != nil {
		client.Close()
		return nil, fmt.Errorf("rpcmr: registering: %w", err)
	}
	return w, nil
}

// Completed reports how many tasks this worker has finished.
func (w *Worker) Completed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.completed
}

// Close drops the master connection.
func (w *Worker) Close() error { return w.client.Close() }

// Run is the worker main loop: ask for a task, execute it, report it, until
// the master shuts down, the connection drops, or ctx is cancelled. A clean
// master shutdown returns nil.
//
// The worker waits on no timer of its own. Result reports piggyback the next
// assignment (ResultReply.Next), so a busy worker makes one round-trip per
// task; with nothing riding back it asks at once, and the master holds the
// request until there is an answer. Only when a hold runs out into TaskWait
// does it pause PollInterval.
//
// One TaskReply serves the whole loop: emptied, it is the destination of
// every reply, so a task's payloads are read into the memory the last
// task's left behind (they are dead by then: a task is reported after
// MapFrames or the reduce has returned, and those keep nothing of their
// input).
func (w *Worker) Run(ctx context.Context) error {
	var task TaskReply
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch task.Kind {
		case TaskShutdown:
			return nil
		case TaskWait:
			task = task.emptied()
			call := w.client.Go("Master.RequestTask", &TaskArgs{WorkerID: w.cfg.ID}, &task, make(chan *rpc.Call, 1))
			select {
			case <-ctx.Done():
				// The reply, if one comes, lands in task, which nobody reads again.
				return ctx.Err()
			case <-call.Done:
			}
			if call.Error != nil {
				return fmt.Errorf("rpcmr: worker %s: request task: %w", w.cfg.ID, call.Error)
			}
			if task.Kind != TaskWait {
				continue
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.cfg.PollInterval):
			}
		case TaskMap, TaskReduce:
			if w.shouldVanish() {
				return fmt.Errorf("rpcmr: worker %s: injected crash holding %s task %d", w.cfg.ID, phaseName(task.Kind), task.TaskID)
			}
			if err := w.runTask(&task); err != nil {
				return err
			}
		default:
			return fmt.Errorf("rpcmr: worker %s: unknown task kind %d", w.cfg.ID, task.Kind)
		}
	}
}

// observeTask books one executed task into the worker-side registry:
// rpcmr_worker_tasks_total{kind,result} and the execution-latency
// histogram (stall injection included — a stalled worker's own metrics
// show the slowdown the master attributes to it).
func (w *Worker) observeTask(kind string, start time.Time, err error) {
	reg := w.cfg.Metrics
	if reg == nil {
		return
	}
	result := "ok"
	if err != nil {
		result = "error"
	}
	reg.Counter("rpcmr_worker_tasks_total",
		telemetry.L("kind", kind), telemetry.L("result", result)).Inc()
	reg.Histogram("rpcmr_worker_task_seconds", telemetry.DurationBuckets(),
		telemetry.L("kind", kind)).Observe(time.Since(start).Seconds())
}

// stall applies the TaskStall straggler injection.
func (w *Worker) stall() {
	if w.cfg.TaskStall > 0 {
		time.Sleep(w.cfg.TaskStall)
	}
}

// shouldVanish reports whether the crash-while-holding-a-task injection
// fires now.
func (w *Worker) shouldVanish() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cfg.VanishAfterTasks > 0 && w.completed >= w.cfg.VanishAfterTasks
}

// bumpCompleted counts a finished task.
func (w *Worker) bumpCompleted() {
	w.mu.Lock()
	w.completed++
	w.mu.Unlock()
}

// taskSpan starts a worker-local span tree for one task when the master
// asked for tracing (task.TraceID != 0). The returned finish callback
// ends the span and hands back the recorded SpanData batch (nil when
// tracing is off or the task failed — error reports must not ship spans,
// or a retried task would appear twice in the stitched trace).
func (w *Worker) taskSpan(task *TaskReply, name string) (span *telemetry.Span, finish func(failed bool) []telemetry.SpanData) {
	if task.TraceID == 0 {
		return nil, func(bool) []telemetry.SpanData { return nil }
	}
	tracer := telemetry.NewTracer()
	_, span = telemetry.StartSpan(telemetry.WithTracer(context.Background(), tracer), name,
		telemetry.A("task", task.TaskID), telemetry.A("attempt", task.Attempt),
		telemetry.A("worker", w.cfg.ID))
	span.SetTrack(task.Track)
	return span, func(failed bool) []telemetry.SpanData {
		span.End()
		if failed {
			return nil
		}
		return tracer.Spans()
	}
}

// errSplitRefused ends a map task whose next split the master refused.
var errSplitRefused = errors.New("rpcmr: split refused: the task is no longer this attempt's")

// runTask executes the task in *task and reports it; what rides back on the
// report's reply — the next assignment, read into the task's own memory —
// replaces it. A map task's splits after the first are fetched one at a
// time into the memory the first came in, once the one before has been
// walked. If the master refuses a fetch, the task is dropped unreported and
// the worker asks for another.
func (w *Worker) runTask(task *TaskReply) error {
	kind := phaseName(task.Kind)
	args := ResultArgs{
		Kind:     task.Kind,
		WorkerID: w.cfg.ID,
		Job:      task.Job,
		TaskID:   task.TaskID,
		Attempt:  task.Attempt,
		TraceID:  task.TraceID,
	}
	span, finish := w.taskSpan(task, kind+"-task")
	start := time.Now()
	w.stall()
	var lost error // the connection failed under a fetch
	split := func(i int) ([]byte, error) {
		if i > 0 {
			next := TaskReply{Frames: task.Frames[:0]}
			fetch := SplitArgs{WorkerID: w.cfg.ID, Job: task.Job, TaskID: task.TaskID, Attempt: task.Attempt, Split: i}
			if lost = w.client.Call("Master.NextSplit", &fetch, &next); lost != nil {
				return nil, lost
			}
			task.Frames = next.Frames
			if next.Kind != TaskMap {
				return nil, errSplitRefused
			}
		}
		return task.Frames, nil
	}
	job, err := lookupJob(task.JobName, task.Params)
	switch {
	case err != nil:
	case task.Kind == TaskMap:
		args.Frames, args.Stats, err = mapreduce.MapFrames(job.FrameJob, task.Splits, split, task.TaskID, task.Reducers, job.Codec)
	default:
		args.Frames, args.Stats, err = executeReduce(job, task)
	}
	switch {
	case lost != nil:
		return fmt.Errorf("rpcmr: worker %s: next split of map task %d: %w", w.cfg.ID, task.TaskID, lost)
	case errors.Is(err, errSplitRefused):
		finish(true)
		*task = task.emptied()
		return nil
	}
	if task.Kind == TaskMap {
		// The span's record count is input rows: the task learns it from
		// the frames it walked.
		span.SetAttr("records", int(args.Stats.MapIn))
	}
	if err != nil {
		args.Err, args.Frames, args.Stats = err.Error(), nil, mapreduce.FrameStats{}
		span.SetAttr("error", err.Error())
	}
	args.Spans = finish(err != nil)
	w.observeTask(kind, start, err)
	reply := ResultReply{Next: task.emptied()}
	if err := w.client.Call("Master.Report", &args, &reply); err != nil {
		return fmt.Errorf("rpcmr: worker %s: report %s: %w", w.cfg.ID, kind, err)
	}
	*task = reply.Next
	w.bumpCompleted()
	return nil
}

// executeReduce is one reduce task: the reducer's frame streams through the
// job's folder, by the reduce-task body every executor shares. Its output is
// one stream, as ResultArgs.Frames carries it.
func executeReduce(job Job, task *TaskReply) ([][]byte, mapreduce.FrameStats, error) {
	out, st, err := mapreduce.ReduceFramesStream(task.FrameStreams, job.FrameJob, job.Codec)
	return [][]byte{out}, st, err
}
