package rpcmr

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/telemetry"
)

// A completed task is a straggler when it took more than stragglerFactor
// times the median of the current phase's completed tasks, once the phase
// has minStragglerSamples of them to take the median of.
const (
	stragglerFactor     = 2.0
	minStragglerSamples = 3
)

// MasterService is the net/rpc surface of a Master. All methods follow the
// rpc contract: exported, two args, error return.
type MasterService struct {
	m *Master
}

// Register announces a worker to the master. A worker that registers
// again — restarted under the same ID — has lost the task it held, which
// goes back on the queue (loseTask).
func (s *MasterService) Register(args RegisterArgs, reply *RegisterReply) error {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	s.m.touchWorker(args.WorkerID)
	s.m.loseTask(args.WorkerID, "asked-again")
	reply.OK = true
	return nil
}

// RequestTask hands the calling worker a task or a shutdown notice. A
// worker that asks for work holds none: the task the master thinks it holds
// goes back on the queue first (loseTask). With nothing to give it holds the
// request, and asks again at every event that may change the answer
// (wakeHeld). No worker is held for more than half the liveness window, and
// it is counted as heard from when the hold begins and each time it wakes,
// so a parked worker never turns suspect; past that the answer is TaskWait.
// A request whose connection is lost gives up its hold without taking a
// task.
func (s *MasterService) RequestTask(args TaskArgs, reply *TaskReply) error {
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.touchWorker(args.WorkerID)
	m.loseTask(args.WorkerID, "asked-again")
	holdUntil := time.Now().Add(m.cfg.LivenessWindow / 2)
	held := false
	for {
		m.assignTask(args.WorkerID, reply)
		wait := time.Until(holdUntil)
		if reply.Kind != TaskWait || wait <= 0 {
			break
		}
		if !held {
			held = true
			m.held++
		}
		wake, timer := m.wake, time.NewTimer(wait)
		m.mu.Unlock()
		select {
		case <-wake:
		case <-timer.C:
		case <-args.gone:
		}
		timer.Stop()
		m.mu.Lock()
		if isClosed(args.gone) {
			break
		}
		m.touchWorker(args.WorkerID)
	}
	if held {
		release := reply.onSent
		reply.onSent = func() {
			if release != nil {
				release()
			}
			m.mu.Lock()
			defer m.mu.Unlock()
			if m.held--; m.held == 0 && m.answered != nil {
				close(m.answered)
				m.answered = nil
			}
		}
	}
	return nil
}

// assignTask (mu held) fills reply with the next assignment for worker:
// a task, a wait directive, or a shutdown notice. Shared by RequestTask
// and the piggybacked ResultReply.Next so both hand out identical
// assignments. It lets go of mu while it seals a map task's first split: a
// handler calls it last, or reads the master's state afresh after it.
func (m *Master) assignTask(worker string, reply *TaskReply) {
	if m.shutdown {
		reply.Kind = TaskShutdown
		return
	}
	js := m.job
	if js == nil || isClosed(js.finished) {
		reply.Kind = TaskWait
		return
	}
	if len(js.pending) == 0 {
		reply.Kind = TaskWait
		return
	}
	id := js.pending[0]
	js.pending = js.pending[1:]
	t := js.tasks[id]
	t.running = true
	t.startedAt = time.Now()
	t.worker = worker

	reply.Kind = js.phase
	reply.Job = js.seq
	reply.TaskID = id
	reply.Attempt = t.attempt
	reply.JobName = js.spec.Name
	reply.Params = js.spec.Params
	reply.Reducers = js.spec.Reducers
	if js.tracer != nil {
		// Each worker gets its own Chrome-trace row so the stitched trace
		// reads like the cluster's real timeline.
		track, ok := js.tracks[worker]
		if !ok {
			track = js.nextTrack
			js.nextTrack++
			js.tracks[worker] = track
		}
		reply.TraceID = js.traceID
		reply.ParentSpan = js.parentSpan
		reply.Track = track
	}
	if js.phase == TaskReduce {
		reply.FrameStreams = js.frameStreams[id]
		return
	}
	// A map task: its share's first split rides on the assignment, and the
	// worker fetches each of the others (NextSplit).
	reply.Splits = t.end - t.first
	if reply.Splits > 0 && !m.sealSplit(js, worker, t.first, reply) {
		*reply = TaskReply{Kind: TaskWait}
	}
}

// sealSplit (mu held) seals split of js's input — rows [split·SplitSize, …)
// of a FrameRows input, a block of a whole one — into reply.Frames, and says
// whether it could; when it could not, the job has failed. The split goes
// into a buffer of the job's free list that is this reply's alone until the
// reply has been sent; a retry seals it again, into another. It is
// megabytes, so mu is released meanwhile: heartbeats, reports and health
// sweeps must not wait on an encode. A handler calls it last, or reads the
// master's state afresh after it.
func (m *Master) sealSplit(js *jobState, worker string, split int, reply *TaskReply) bool {
	var dst []byte
	if n := len(js.spare); n > 0 {
		dst, js.spare = js.spare[n-1], js.spare[:n-1]
	}
	m.mu.Unlock()
	frame, err := js.input.frame(dst, split, m.cfg.SplitSize)
	if err == nil && len(frame) > m.maxSplit {
		err = fmt.Errorf("a %d-byte frame is more than the %d bytes one message may carry: lower MasterConfig.SplitSize (%d rows)",
			len(frame), m.maxSplit, m.cfg.SplitSize)
	}
	m.mu.Lock()
	if err != nil {
		m.finish(js, fmt.Errorf("rpcmr: sealing split %d of the input: %w", split, err))
		return false
	}
	reply.Frames = frame
	reply.onSent = func() {
		m.mu.Lock()
		js.spare = append(js.spare, frame[:0])
		m.mu.Unlock()
	}
	if reg := m.cfg.Metrics; reg != nil {
		reg.Counter("rpcmr_input_bytes_total", telemetry.L("worker", worker)).Add(int64(len(frame)))
	}
	return true
}

// task (mu held) is task id of the running job's current phase, when the
// job is number seq and the phase is kind; else nil. A call that names a
// past job, another phase or a task out of range is about no task.
func (m *Master) task(seq uint64, kind TaskKind, id int) (*jobState, *taskState) {
	js := m.job
	if js == nil || js.seq != seq || js.phase != kind || isClosed(js.finished) || id < 0 || id >= len(js.tasks) {
		return nil, nil
	}
	return js, js.tasks[id]
}

// heldBy (mu held) says whether attempt is the one that holds t now: t is
// running, not complete, and was last handed out as that attempt. Only the
// holder may fetch the task's input or fail it.
func (t *taskState) heldBy(attempt int) bool {
	return t.running && !t.complete && t.attempt == attempt
}

// NextSplit hands the worker running a map task split args.Split of its
// share, sealed as the first was, in a TaskReply of kind TaskMap; like any
// call, it is a heartbeat from the worker. A fetch for a job, task or
// attempt that is no longer current — the task was lost with its worker and
// queued again, a report of the share was accepted, the job ended — or for
// a split outside the share is refused: the reply is TaskWait, and the worker drops the task without
// reporting it.
func (s *MasterService) NextSplit(args SplitArgs, reply *TaskReply) error {
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.touchWorker(args.WorkerID)
	js, t := m.task(args.Job, TaskMap, args.TaskID)
	if t == nil || !t.heldBy(args.Attempt) || args.Split < 1 || args.Split >= t.end-t.first {
		return nil
	}
	if m.sealSplit(js, args.WorkerID, t.first+args.Split, reply) {
		reply.Kind = TaskMap
	}
	return nil
}

// Report receives a task's result, map or reduce, under one rule: a report
// for another job or phase, for a task out of range or for one already
// complete changes nothing; a failure counts only from the attempt that
// holds the task; the first success wins — tasks are deterministic, so any
// attempt's output is the task's.
func (s *MasterService) Report(args ResultArgs, reply *ResultReply) error {
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	reply.Accepted = m.report(args)
	// Piggyback the worker's next assignment on every outcome — stale
	// reports included — after the report, so a phase transition it
	// triggered is visible to the assignment.
	m.assignTask(args.WorkerID, &reply.Next)
	return nil
}

// report (mu held) applies one task report under Report's rule and says
// whether it was accepted.
func (m *Master) report(args ResultArgs) bool {
	w := m.touchWorker(args.WorkerID)
	js, t := m.task(args.Job, args.Kind, args.TaskID)
	if t == nil || t.complete {
		return false // stale, or the first writer won already
	}
	kind := phaseName(js.phase)
	if args.Err != "" {
		if !t.heldBy(args.Attempt) {
			return false // a superseded attempt's: the task was queued again already
		}
		t.running = false
		t.attempt++
		t.failures++
		m.countRetry(js, args.WorkerID, "report")
		w.lastError = fmt.Sprintf("%s task %d: %s", kind, args.TaskID, args.Err)
		if t.failures >= m.maxAttempts {
			m.finish(js, &WorkerTaskError{Task: args.TaskID, Msg: args.Err})
			return false
		}
		js.pending = append(js.pending, args.TaskID)
		m.wakeHeld()
		return false
	}
	t.complete = true
	t.running = false
	w.tasksDone++
	m.observeTask(t, kind, args.WorkerID)
	m.recordCompletion(js, t, kind, args.WorkerID, args.Spans, args.TraceID)
	js.out[args.TaskID] = args.Frames
	if js.phase == TaskMap && !js.mapOnly {
		m.observeFrameBytes(args.WorkerID, args.Frames)
	}
	js.stats.Add(args.Stats)
	js.done++
	switch {
	case js.done < len(js.tasks):
	case js.phase == TaskMap:
		m.endMapPhase(js)
	default:
		m.finish(js, nil)
	}
	return true
}

// recordCompletion (mu held) runs the observability side of one
// *accepted* task completion: straggler detection against the running
// phase median — booked once as the job counter CounterStragglers and
// reported on the per-worker counter and the task span —
// and the import of the worker's span tree into the master's tracer.
// Because only the first accepted report of a task reaches here
// (first-writer-wins) and error reports carry no spans, a retried task
// contributes exactly one span tree to the stitched trace.
func (m *Master) recordCompletion(js *jobState, t *taskState, kind, worker string, spans []telemetry.SpanData, traceID uint64) {
	dur := time.Since(t.startedAt).Seconds()
	straggler := false
	if len(js.durs) >= minStragglerSamples {
		med := median(js.durs)
		if med > 0 && dur > stragglerFactor*med {
			straggler = true
			js.counters.Add(mapreduce.CounterStragglers, 1)
			if reg := m.cfg.Metrics; reg != nil {
				reg.Counter("rpcmr_stragglers_total", telemetry.L("worker", worker)).Inc()
			}
		}
	}
	js.durs = append(js.durs, dur)

	if js.tracer != nil && traceID == js.traceID && len(spans) > 0 {
		if straggler {
			// Mark the batch roots (the task spans) before import, so the
			// flag survives into the stitched trace.
			inBatch := make(map[uint64]bool, len(spans))
			for _, s := range spans {
				inBatch[s.ID] = true
			}
			for i := range spans {
				if !inBatch[spans[i].Parent] {
					spans[i].Attrs = append(spans[i].Attrs, telemetry.A("straggler", true))
				}
			}
		}
		js.tracer.Import(js.parentSpan, spans)
	}
}

// median returns the middle value of xs (mean of the two middles for
// even lengths) without mutating it.
func median(xs []float64) float64 {
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// countRetry (mu held) books one re-execution of a task of js's current
// phase. cause is "report" (the worker returned an error) or "worker-lost"
// (the worker holding the task died or asked for work again).
func (m *Master) countRetry(js *jobState, worker, cause string) {
	m.taskRetries++
	if js.phase == TaskMap {
		js.counters.Add(mapreduce.CounterMapRetries, 1)
	} else {
		js.counters.Add(mapreduce.CounterRedRetries, 1)
	}
	if reg := m.cfg.Metrics; reg != nil {
		reg.Counter("rpcmr_task_retries_total",
			telemetry.L("cause", cause), telemetry.L("worker", worker)).Inc()
	}
}

// observeTask (mu held) records one successfully finished task's
// latency into the per-worker histogram, plus the cluster-wide
// completion counter the time-series sampler turns into a throughput
// curve (rpcmr_tasks_done_total — the anomaly watchdog's stall rule and
// skytop's sparkline both read its rate).
func (m *Master) observeTask(t *taskState, kind, worker string) {
	reg := m.cfg.Metrics
	if reg == nil || t.startedAt.IsZero() {
		return
	}
	reg.Counter("rpcmr_tasks_done_total").Inc()
	reg.Histogram("rpcmr_task_seconds", telemetry.DurationBuckets(),
		telemetry.L("kind", kind), telemetry.L("worker", worker)).
		Observe(time.Since(t.startedAt).Seconds())
}

// observeFrameBytes (mu held) books one map task's frame payload into the
// per-worker shuffle series: rpcmr_shuffle_bytes_total counts payload
// bytes (frame header + coordinates — never the message around them, matching
// the engine's mr.shuffle.bytes semantics) and rpcmr_shuffle_frame_bytes
// tracks the per-task payload size distribution, so a worker producing
// outsized frames stands out.
func (m *Master) observeFrameBytes(worker string, parts [][]byte) {
	reg := m.cfg.Metrics
	if reg == nil {
		return
	}
	var total int64
	for _, stream := range parts {
		total += int64(len(stream))
	}
	reg.Counter("rpcmr_shuffle_bytes_total", telemetry.L("worker", worker)).Add(total)
	// 1 KiB … ~16 GiB in ×4 steps: frame payloads are batched, so the
	// interesting range starts well above a single point.
	reg.Histogram("rpcmr_shuffle_frame_bytes", telemetry.ExpBuckets(1024, 4, 12),
		telemetry.L("worker", worker)).Observe(float64(total))
}

// WorkerTaskError reports a task that failed deterministically on workers.
type WorkerTaskError struct {
	Task int
	Msg  string
}

// Error implements error.
func (e *WorkerTaskError) Error() string {
	return "rpcmr: task " + strconv.Itoa(e.Task) + " failed on workers: " + e.Msg
}
