package rpcmr

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sort"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/telemetry"
)

// MasterConfig tunes master behaviour.
type MasterConfig struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:0".
	Addr string
	// SplitSize is rows per input message; a map task is a worker's share
	// of them (see Run). Defaults to 1000.
	SplitSize int
	// LivenessWindow is how recently a worker must have called in to
	// count as live in Status and healthy in Health. Defaults to 10s. A
	// worker silent for longer becomes suspect. It also sets how long the
	// master holds a task request it cannot answer yet — half the window,
	// the worker counted as heard from when the hold begins and when it
	// ends — so an idle worker is never silent for longer than that plus
	// its own PollInterval. A worker silent for three windows is dead, and
	// the task it held runs again (see health.go).
	LivenessWindow time.Duration
	// Metrics, when non-nil, receives master-side series: per-worker
	// task latency histograms (rpcmr_task_seconds), retry/liveness
	// counters, and job counts. Nil (the default) records nothing.
	Metrics *telemetry.Registry
}

func (c MasterConfig) withDefaults() MasterConfig {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.SplitSize <= 0 {
		c.SplitSize = 1000
	}
	if c.LivenessWindow <= 0 {
		c.LivenessWindow = 10 * time.Second
	}
	return c
}

// Master owns job state and serves the task protocol over net/rpc.
type Master struct {
	cfg      MasterConfig
	maxSplit int // maxSplitBytes; a field so that its test can lower it
	// maxAttempts is maxTaskAttempts; a field so that the tests of a task
	// that runs out of attempts can lower it.
	maxAttempts int
	listener    net.Listener
	server      *rpc.Server

	// stopc ends the health sweep goroutine; closed once by Close.
	stopc    chan struct{}
	stopOnce sync.Once

	mu       sync.Mutex
	workers  map[string]*workerInfo // health state machine per worker
	job      *jobState              // nil when idle
	jobs     uint64                 // jobs started; the running one's number is its seq
	shutdown bool
	// wake is closed, and replaced, by whatever may change the answer to a
	// held task request (see wakeHeld). held counts the requests that were
	// held and whose response is not yet written; answered, when Drain is
	// waiting for that to reach zero, is closed when it does.
	wake     chan struct{}
	held     int
	answered chan struct{}
	// Cumulative counters across all jobs (mu held): task re-executions
	// from failure reports and lost workers, and the tasks lost with their
	// worker (see loseTask). lastJobErr remembers the most recent job-level
	// failure for /debug/health.
	taskRetries    int64
	workerFailures int64
	lastJobErr     string
}

// jobState tracks one running job.
type jobState struct {
	spec    JobSpec
	phase   TaskKind // TaskMap or TaskReduce
	mapOnly bool     // a task job: its map tasks' blocks are its result
	seq     uint64   // which of the master's jobs this is: TaskReply.Job
	input   Input
	tasks   []*taskState
	pending []int // indexes of queued tasks of the current phase
	done    int   // completed tasks of the current phase
	// out[task] is the current phase's accepted output of task: a map
	// task's sealed stream per reducer, a reduce task's output stream.
	// frameStreams[r] gathers reducer r's streams in map-task order.
	out          [][][]byte
	frameStreams [][][]byte
	mapStart     time.Time
	mapDur       time.Duration
	shuffleDur   time.Duration // master-side gathering in endMapPhase
	redStart     time.Time
	finished     chan struct{}
	err          error
	// spare is the job's free list of split buffers: sealSplit seals a
	// split into one (or into a new one when the list is empty) and it comes
	// back once the reply that carries it has been written, so as many exist
	// as splits were ever in flight at once. It is dropped with the job: an
	// idle master holds none.
	spare [][]byte
	// Stitched-trace state. tracer comes from the Run context (nil when
	// off); traceID doubles as the wire trace id and the parent span for
	// imported worker spans.
	tracer     *telemetry.Tracer
	traceID    uint64
	parentSpan uint64
	tracks     map[string]int // worker id → Chrome-trace row
	nextTrack  int
	durs       []float64 // completed task durations, current phase
	// stats sums the tallies of every task's one accepted report; counters
	// holds what the master counts as it happens (retries, lost workers,
	// stragglers). Run turns both into the job's result.
	stats    mapreduce.FrameStats
	counters *mapreduce.Counters
}

// taskState tracks one task of the current phase.
type taskState struct {
	id       int
	attempt  int
	running  bool
	complete bool
	failures int
	// startedAt and worker describe the current assignment, for task
	// latency measurement.
	startedAt time.Time
	worker    string
	// first and end bound a map task's splits, [first, end): the messages
	// its input crosses the wire in, the first with the assignment and each
	// later one on the worker's NextSplit. A whole input's task i is its
	// blocks, a split each.
	first, end int
}

// JobSpec identifies the job to run.
type JobSpec struct {
	Name     string
	Params   []byte
	Reducers int
}

// Input is a job's input: a number of rows, which Run cuts into splits of
// MasterConfig.SplitSize and deals out to map tasks a worker's share each
// (FrameRows) or hands a given number of map tasks one whole input each
// (WholeFrames), and frame, which seals split number split, of size rows a
// split, onto dst when it is sent.
type Input struct {
	rows int
	// ends, for a whole input, is one entry per map task: task i's splits
	// are [ends[i-1], ends[i]).
	ends  []int
	frame func(dst []byte, split, size int) ([]byte, error)
}

// FrameRows is rows points of input, of which frame(dst, lo, hi) seals rows
// [lo, hi) into one frame stream appended to dst, as points.AppendFrame
// does. The master calls it each time it sends the split — with its task's
// assignment or for the worker's NextSplit, and again, for the same bytes,
// on a retry — from RPC handlers, concurrently and outside its own lock.
// The result is the master's: once it has been sent it is the dst of a
// later call, empty but with its capacity, so only the splits in flight
// exist at any moment and a steady job allocates none.
func FrameRows(rows int, frame func(dst []byte, lo, hi int) ([]byte, error)) Input {
	return Input{rows: rows, frame: func(dst []byte, split, size int) ([]byte, error) {
		lo := split * size
		return frame(dst, lo, min(lo+size, rows))
	}}
}

// WholeFrames is rows points of input dealt to len(blocks) map tasks, one
// whole input each — the input of a job with a TaskMapper. Task t's input is
// blocks[t] blocks, a split each, which its worker fetches one at a time as
// a FrameRows share's, and frame(dst, t, b) seals block b of task t under
// FrameRows' rules. The merging job seals task g the candidates' levels,
// its group and then the rows at or below the group's sums.
func WholeFrames(rows int, blocks []int, frame func(dst []byte, task, block int) ([]byte, error)) Input {
	ends := make([]int, len(blocks))
	for t, n := range blocks {
		ends[t] = n
		if t > 0 {
			ends[t] += ends[t-1]
		}
	}
	return Input{rows: rows, ends: ends, frame: func(dst []byte, split, _ int) ([]byte, error) {
		t := sort.SearchInts(ends, split+1)
		if t > 0 {
			split -= ends[t-1]
		}
		return frame(dst, t, split)
	}}
}

// maxSplitBytes caps one frame payload on the wire — a split's stream, a map
// task's part, a reduce task's output. A reader refuses a longer one before
// it allocates anything.
const maxSplitBytes = 1<<30 - 1<<20

// maxTaskAttempts bounds the executions of one task — its first attempt and
// every re-queue after a failure report or a lost worker — before the job
// fails.
const maxTaskAttempts = 5

// NewMaster starts a master listening on cfg.Addr.
func NewMaster(cfg MasterConfig) (*Master, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("rpcmr: master listen: %w", err)
	}
	m := &Master{
		cfg:         cfg,
		maxSplit:    maxSplitBytes,
		maxAttempts: maxTaskAttempts,
		listener:    ln,
		server:      rpc.NewServer(),
		workers:     make(map[string]*workerInfo),
		stopc:       make(chan struct{}),
		wake:        make(chan struct{}),
	}
	svc := &MasterService{m: m}
	if err := m.server.RegisterName("Master", svc); err != nil {
		ln.Close()
		return nil, fmt.Errorf("rpcmr: register service: %w", err)
	}
	m.registerClusterGauges()
	go m.acceptLoop()
	go m.healthLoop()
	return m, nil
}

// registerClusterGauges installs the scrape hook that refreshes the
// master's cluster-shape gauges on every exposition or sample: whether
// a job is running, the current phase's queue depth, and per worker the
// in-flight task count and cumulative completions. The per-worker pair
// (rpcmr_worker_inflight / rpcmr_worker_tasks_done) is what the anomaly
// watchdog's stall rule reads: a worker holding work whose completions
// stand still is stalled.
func (m *Master) registerClusterGauges() {
	reg := m.cfg.Metrics
	if reg == nil {
		return
	}
	reg.OnScrape(func(reg *telemetry.Registry) {
		m.mu.Lock()
		defer m.mu.Unlock()
		running, queue := 0.0, 0.0
		inFlight := make(map[string]int)
		if js := m.job; js != nil && !isClosed(js.finished) {
			running = 1
			queue = float64(len(js.pending))
			for _, t := range js.tasks {
				if t.running && !t.complete {
					inFlight[t.worker]++
				}
			}
		}
		reg.Gauge("rpcmr_job_running").Set(running)
		reg.Gauge("rpcmr_queue_depth").Set(queue)
		for id, w := range m.workers {
			reg.Gauge("rpcmr_worker_inflight", telemetry.L("worker", id)).
				Set(float64(inFlight[id]))
			reg.Gauge("rpcmr_worker_tasks_done", telemetry.L("worker", id)).
				Set(float64(w.tasksDone))
		}
	})
}

// Addr returns the listen address (with the resolved port).
func (m *Master) Addr() string { return m.listener.Addr().String() }

// Close stops the master. In-flight jobs fail.
func (m *Master) Close() error {
	m.mu.Lock()
	m.shutdown = true
	m.wakeHeld()
	if m.job != nil && m.job.err == nil && !isClosed(m.job.finished) {
		m.job.err = errors.New("rpcmr: master closed")
		close(m.job.finished)
	}
	m.mu.Unlock()
	m.stopOnce.Do(func() { close(m.stopc) })
	return m.listener.Close()
}

// drainGrace bounds how long Drain waits for held requests to be answered.
const drainGrace = 200 * time.Millisecond

// Drain tells workers to shut down: from now on every task request (and
// piggybacked assignment) answers TaskShutdown, while the listener stays
// up so in-flight result reports and later requests still land. The
// requests the master is holding are answered now, and Drain returns once
// their responses are written (or after drainGrace): an idle worker has its
// notice when Drain returns. Call before Close for a graceful cluster
// teardown.
func (m *Master) Drain() {
	m.mu.Lock()
	m.shutdown = true
	m.wakeHeld()
	var answered chan struct{}
	if m.held > 0 {
		if m.answered == nil {
			m.answered = make(chan struct{})
		}
		answered = m.answered
	}
	m.mu.Unlock()
	if answered != nil {
		select {
		case <-answered:
		case <-time.After(drainGrace):
		}
	}
}

// wakeHeld (mu held) releases every held task request to ask again. Called
// by whatever may change the answer: a job installed, the reduce phase
// begun, a task re-queued, Drain, Close.
func (m *Master) wakeHeld() {
	close(m.wake)
	m.wake = make(chan struct{})
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func (m *Master) acceptLoop() {
	for {
		conn, err := m.listener.Accept()
		if err != nil {
			return // listener closed
		}
		go m.server.ServeCodec(newWire(conn))
	}
}

// WorkerCount reports how many distinct workers have registered.
func (m *Master) WorkerCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.workers)
}

// workersUp (mu held) counts the registered workers the health sweep has
// not declared dead: those Run cuts a job's input into shares for.
func (m *Master) workersUp() int {
	n := 0
	for _, w := range m.workers {
		if w.state != WorkerDead {
			n++
		}
	}
	return n
}

// Run executes one job across the connected workers and blocks until it
// completes, fails, or ctx is cancelled. Only one job runs at a time;
// concurrent Run calls return an error. The result is what
// mapreduce.RunFrames returns for the job in process: blocks assembled from
// the workers' output frames in reduce-task order — or, for a task job,
// which finishes on its last map report, a block per task, keyed by task —
// the counters and per-partition volumes of the accepted task reports, and
// the phase timing as the master saw it.
func (m *Master) Run(ctx context.Context, spec JobSpec, input Input) (*mapreduce.FrameResult, error) {
	// Validate the job is instantiable on the master side too, so typos
	// fail fast rather than on a worker.
	job, err := lookupJob(spec.Name, spec.Params)
	if err != nil {
		return nil, err
	}
	mapOnly, _ := job.FrameJob.Check() // lookupJob refused any other shape
	switch {
	case mapOnly:
		spec.Reducers = 0
	case spec.Reducers <= 0:
		spec.Reducers = 1
	}
	if input.frame == nil {
		return nil, fmt.Errorf("rpcmr: job %q: no input (build one with FrameRows)", spec.Name)
	}
	// A task mapper's tasks each need every row; a row mapper's must not get them.
	if whole := input.ends != nil; input.rows > 0 && whole != mapOnly {
		return nil, fmt.Errorf("rpcmr: job %q: a task mapper and a whole input (WholeFrames) go together", spec.Name)
	}
	ctx, jobSpan := telemetry.StartSpan(ctx, "rpcmr-job:"+spec.Name,
		telemetry.A("job", spec.Name), telemetry.A("reducers", spec.Reducers),
		telemetry.A("records", input.rows))
	jobStart := time.Now()
	endJob := func(result string, err error) {
		if err != nil {
			jobSpan.SetAttr("error", err.Error())
		}
		jobSpan.End()
		if reg := m.cfg.Metrics; reg != nil {
			reg.Counter("rpcmr_jobs_total", telemetry.L("job", spec.Name), telemetry.L("result", result)).Inc()
			reg.Histogram("rpcmr_job_seconds", telemetry.DurationBuckets(),
				telemetry.L("job", spec.Name)).Observe(time.Since(jobStart).Seconds())
		}
	}

	m.mu.Lock()
	if m.shutdown {
		m.mu.Unlock()
		err := errors.New("rpcmr: master is shut down")
		endJob("rejected", err)
		return nil, err
	}
	if m.job != nil {
		m.mu.Unlock()
		err := errors.New("rpcmr: a job is already running")
		endJob("rejected", err)
		return nil, err
	}
	m.jobs++
	js := &jobState{
		seq:      m.jobs,
		spec:     spec,
		phase:    TaskMap,
		mapOnly:  mapOnly,
		input:    input,
		finished: make(chan struct{}),
		mapStart: time.Now(),
		// Stitched-trace wiring: worker task spans attach under the job
		// span; the job span's id doubles as the wire trace id so stale
		// reports from another job are rejected on import.
		tracer:     telemetry.TracerFrom(ctx),
		traceID:    jobSpan.ID(),
		parentSpan: jobSpan.ID(),
		tracks:     make(map[string]int),
		nextTrack:  1, // track 0 is the master's own timeline row
		counters:   mapreduce.NewCounters(),
	}
	// A whole input is as many map tasks as it says, each a message a block.
	// Rows are cut into S splits of SplitSize, and a map task is a worker's
	// share of them, as in process: W tasks, W the workers not dead now
	// clamped to [1, S], task i the splits ⌈i·S/W⌉ … ⌈(i+1)·S/W⌉ − 1. A
	// task's windows fold its whole share warm, and what a job shuffles is a
	// function of its input and W.
	if input.ends != nil {
		first := 0
		for i, end := range input.ends {
			js.tasks = append(js.tasks, &taskState{id: i, first: first, end: end})
			first = end
		}
	} else if splits := (input.rows + m.cfg.SplitSize - 1) / m.cfg.SplitSize; splits > 0 {
		w := min(max(m.workersUp(), 1), splits)
		for i := 0; i < w; i++ {
			js.tasks = append(js.tasks, &taskState{id: i, first: (i*splits + w - 1) / w, end: ((i+1)*splits + w - 1) / w})
		}
	}
	mapTasks := len(js.tasks)
	js.out = make([][][]byte, mapTasks)
	for i := range js.tasks {
		js.pending = append(js.pending, i)
	}
	m.job = js
	if mapTasks == 0 {
		// Degenerate empty input: go straight to reduce with no groups.
		m.endMapPhase(js)
	}
	m.wakeHeld()
	m.mu.Unlock()

	select {
	case <-ctx.Done():
		m.mu.Lock()
		if m.job == js && !isClosed(js.finished) {
			js.err = ctx.Err()
			close(js.finished)
		}
		m.job = nil
		m.mu.Unlock()
		endJob("cancelled", ctx.Err())
		return nil, ctx.Err()
	case <-js.finished:
	}

	m.mu.Lock()
	m.job = nil
	m.mu.Unlock()
	if js.err != nil {
		endJob("error", js.err)
		return nil, js.err
	}
	// Scheduling spans: the map/shuffle/reduce boundaries are observed
	// inside RPC handlers, so record them after the fact as children of
	// the job span.
	telemetry.RecordSpan(ctx, "map", js.mapStart, js.mapDur,
		telemetry.A("tasks", mapTasks))
	var redDur time.Duration
	if !mapOnly {
		redDur = time.Since(js.redStart)
		telemetry.RecordSpan(ctx, "shuffle", js.mapStart.Add(js.mapDur), js.shuffleDur)
		telemetry.RecordSpan(ctx, "reduce", js.redStart, redDur,
			telemetry.A("tasks", spec.Reducers))
	}
	endJob("ok", nil)
	// Assemble the last phase's output frames in task order — the per-task
	// slots make completion order irrelevant, so output is deterministic.
	var streams [][]byte
	for _, out := range js.out {
		streams = append(streams, out...)
	}
	blocks, err := mapreduce.AssembleFrames(streams)
	if err != nil {
		return nil, fmt.Errorf("rpcmr: assembling output frames: %w", err)
	}
	return mapreduce.NewFrameResult(blocks, js.counters, js.stats, mapreduce.Timing{
		Map:     js.mapDur,
		Shuffle: js.shuffleDur,
		Reduce:  redDur,
		Total:   time.Since(jobStart),
	}), nil
}

// endMapPhase (mu held) ends js's map phase, all of its map tasks
// accepted: a map-only job is finished; any other goes on to reduce — each
// reducer's streams gathered, then reduce tasks queued.
func (m *Master) endMapPhase(js *jobState) {
	js.mapDur = time.Since(js.mapStart)
	if js.mapOnly {
		m.finish(js, nil)
		return
	}
	js.phase = TaskReduce
	shuffleStart := time.Now()
	// Frame shuffle: map tasks already sealed per-reducer streams, so
	// the master only gathers slices in map-task order — no per-key
	// grouping, no string sort, no per-point copying.
	js.frameStreams = make([][][]byte, js.spec.Reducers)
	for r := 0; r < js.spec.Reducers; r++ {
		for _, taskParts := range js.out {
			if r < len(taskParts) && len(taskParts[r]) > 0 {
				js.frameStreams[r] = append(js.frameStreams[r], taskParts[r])
			}
		}
	}
	js.out = make([][][]byte, js.spec.Reducers)
	js.shuffleDur = time.Since(shuffleStart)
	js.redStart = time.Now()
	js.tasks = js.tasks[:0]
	js.pending = js.pending[:0]
	js.done = 0
	js.durs = js.durs[:0] // straggler baseline is per phase
	for r := 0; r < js.spec.Reducers; r++ {
		js.tasks = append(js.tasks, &taskState{id: r})
		js.pending = append(js.pending, r)
	}
	m.wakeHeld()
}

// finish (mu held) completes the job.
func (m *Master) finish(js *jobState, err error) {
	if isClosed(js.finished) {
		return
	}
	js.err = err
	if err != nil {
		m.lastJobErr = err.Error()
	}
	close(js.finished)
}

// loseTask (mu held) puts the task worker holds in the running job, if it
// holds one, back on the queue: the health sweep has declared worker dead
// (reason "dead"), or it asked for work again (reason "asked-again") — a
// worker runs one task at a time, so one that asks has given up whatever
// the master thinks it holds. A lost task is counted both as a task retry
// and as a worker failure, and as an attempt toward maxAttempts.
func (m *Master) loseTask(worker, reason string) {
	js := m.job
	if js == nil || isClosed(js.finished) {
		return
	}
	for _, t := range js.tasks {
		if !t.running || t.complete || t.worker != worker {
			continue
		}
		t.running = false
		t.attempt++
		t.failures++
		m.countRetry(js, worker, "worker-lost")
		js.counters.Add(mapreduce.CounterWorkerFailures, 1)
		m.workerFailures++
		if reg := m.cfg.Metrics; reg != nil {
			reg.Counter("rpcmr_worker_failures_total", telemetry.L("worker", worker)).Inc()
		}
		if w := m.workers[worker]; w != nil {
			w.lastError = fmt.Sprintf("%s task %d lost (%s)", phaseName(js.phase), t.id, reason)
		}
		if t.failures >= m.maxAttempts {
			m.finish(js, fmt.Errorf("rpcmr: task %d exceeded %d attempts (worker lost)",
				t.id, m.maxAttempts))
			return
		}
		js.pending = append(js.pending, t.id)
		m.wakeHeld()
	}
}

// Metrics returns the registry configured on the master (nil when
// telemetry is off) so pipelines built on the cluster — e.g.
// skyjob.Compute — can publish into the same exposition surface.
func (m *Master) Metrics() *telemetry.Registry { return m.cfg.Metrics }
