package rpcmr

import (
	"sort"
	"time"

	"repro/internal/telemetry"
)

// Worker health model: every worker moves through a three-state machine
// driven by heartbeat age (any RPC from the worker is a heartbeat).
//
//	healthy ──(silent > LivenessWindow)──────▶ suspect
//	suspect ──(silent > 3 × LivenessWindow)──▶ dead
//	suspect/dead ──(any heartbeat)───────────▶ healthy
//
// It is the master's only failure detector: the edge to dead puts the task
// the worker held back on the queue (loseTask), as does the worker's own
// Register or RequestTask — a worker that asks for work holds none.
//
// Transitions are detected by a background sweep, four times a
// LivenessWindow (at most once a millisecond), so a dying worker is noticed
// even when nobody polls Status, and each transition counts one
// rpcmr_worker_transitions_total{to,worker} and updates the
// rpcmr_worker_state gauge. The aggregate picture is served at
// /debug/health by binaries that mount telemetry.MountHealth around
// Master.Health.

// WorkerState is one worker's position in the health state machine.
type WorkerState int

const (
	// WorkerHealthy: heartbeat within LivenessWindow.
	WorkerHealthy WorkerState = iota
	// WorkerSuspect: silent for more than LivenessWindow — it keeps the
	// task it holds until it is dead.
	WorkerSuspect
	// WorkerDead: silent for more than 3 × LivenessWindow — presumed gone
	// until it calls in again; the task it held is queued again.
	WorkerDead
)

// String returns the state's wire name.
func (s WorkerState) String() string {
	switch s {
	case WorkerHealthy:
		return "healthy"
	case WorkerSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

// workerInfo is the master's per-worker book-keeping (mu held).
type workerInfo struct {
	id        string
	lastSeen  time.Time
	state     WorkerState
	tasksDone int64
	lastError string
}

// WorkerHealth is one worker's entry in the health summary.
type WorkerHealth struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// LastSeenAgeSeconds is how long ago the worker last called in.
	LastSeenAgeSeconds float64 `json:"last_seen_age_seconds"`
	// TasksDone counts this worker's accepted task completions across all
	// jobs.
	TasksDone int64 `json:"tasks_done"`
	// InFlight counts tasks of the current phase assigned to this worker
	// and not yet complete.
	InFlight int `json:"in_flight"`
	// LastError is the worker's most recent task error or lost task,
	// empty when it has never failed.
	LastError string `json:"last_error,omitempty"`
}

// Health is the master's aggregated live-operations summary — what
// /debug/health serves and what skytop renders.
type Health struct {
	Time time.Time `json:"time"`
	// Healthy/Suspect/Dead count workers per state.
	Healthy int `json:"healthy"`
	Suspect int `json:"suspect"`
	Dead    int `json:"dead"`
	// Workers lists every registered worker, sorted by id.
	Workers []WorkerHealth `json:"workers"`
	// JobRunning/Job/Phase describe the in-flight job ("" when idle);
	// phase is Phase as a TaskKind, for Status.
	JobRunning bool   `json:"job_running"`
	Job        string `json:"job,omitempty"`
	Phase      string `json:"phase,omitempty"`
	phase      TaskKind
	// TasksTotal/TasksDone/QueueDepth/InFlight break the current phase
	// down: done + queued + in-flight = total.
	TasksTotal int `json:"tasks_total"`
	TasksDone  int `json:"tasks_done"`
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`
	// TaskRetries/WorkerFailures count across all jobs, as on Status.
	TaskRetries    int64 `json:"task_retries"`
	WorkerFailures int64 `json:"worker_failures"`
	// LastJobError is the most recent job-level failure, empty when every
	// job has succeeded.
	LastJobError string `json:"last_job_error,omitempty"`
}

// Health assembles the current health summary. Safe to call at any time;
// the /debug/health handler calls it per request.
func (m *Master) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	h := Health{
		Time:           now,
		Workers:        make([]WorkerHealth, 0, len(m.workers)),
		TaskRetries:    m.taskRetries,
		WorkerFailures: m.workerFailures,
		LastJobError:   m.lastJobErr,
	}
	inFlight := make(map[string]int)
	if js := m.job; js != nil && !isClosed(js.finished) {
		h.JobRunning = true
		h.Job = js.spec.Name
		h.phase = js.phase
		h.Phase = phaseName(js.phase)
		h.TasksTotal = len(js.tasks)
		h.TasksDone = js.done
		h.QueueDepth = len(js.pending)
		for _, t := range js.tasks {
			if t.running && !t.complete {
				inFlight[t.worker]++
				h.InFlight++
			}
		}
	}
	for _, w := range m.workers {
		switch w.state {
		case WorkerHealthy:
			h.Healthy++
		case WorkerSuspect:
			h.Suspect++
		default:
			h.Dead++
		}
		h.Workers = append(h.Workers, WorkerHealth{
			ID:                 w.id,
			State:              w.state.String(),
			LastSeenAgeSeconds: now.Sub(w.lastSeen).Seconds(),
			TasksDone:          w.tasksDone,
			InFlight:           inFlight[w.id],
			LastError:          w.lastError,
		})
	}
	sort.Slice(h.Workers, func(i, j int) bool { return h.Workers[i].ID < h.Workers[j].ID })
	return h
}

// phaseName renders a TaskKind for humans and JSON.
func phaseName(k TaskKind) string {
	switch k {
	case TaskMap:
		return "map"
	case TaskReduce:
		return "reduce"
	default:
		return ""
	}
}

// touchWorker (mu held) books a heartbeat from worker id, creating its
// record on first contact. A heartbeat from a suspect or dead worker is
// a recovery transition.
func (m *Master) touchWorker(id string) *workerInfo {
	w := m.workers[id]
	if w == nil {
		w = &workerInfo{id: id, state: WorkerHealthy}
		m.workers[id] = w
		m.setStateGauge(id, WorkerHealthy)
	}
	w.lastSeen = time.Now()
	if w.state != WorkerHealthy {
		m.transitionWorker(w, WorkerHealthy)
	}
	return w
}

// transitionWorker (mu held) applies one state-machine edge: record,
// gauge, and exactly one transition count.
func (m *Master) transitionWorker(w *workerInfo, to WorkerState) {
	if w.state == to {
		return
	}
	w.state = to
	m.setStateGauge(w.id, to)
	if reg := m.cfg.Metrics; reg != nil {
		reg.Counter("rpcmr_worker_transitions_total",
			telemetry.L("worker", w.id), telemetry.L("to", to.String())).Inc()
	}
}

// setStateGauge (mu held) publishes the coded worker state
// (0 healthy, 1 suspect, 2 dead) as rpcmr_worker_state{worker}.
func (m *Master) setStateGauge(id string, s WorkerState) {
	if reg := m.cfg.Metrics; reg != nil {
		reg.Gauge("rpcmr_worker_state", telemetry.L("worker", id)).Set(float64(s))
	}
}

// healthLoop is the background sweep: every quarter LivenessWindow (at
// least a millisecond) it ages the workers through the state machine until
// the master closes.
func (m *Master) healthLoop() {
	ticker := time.NewTicker(max(m.cfg.LivenessWindow/4, time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case <-m.stopc:
			return
		case now := <-ticker.C:
			m.sweepWorkerStates(now)
		}
	}
}

// sweepWorkerStates applies heartbeat-age transitions, and queues again
// the task of every worker it finds dead. The two steps are sequential on
// purpose: a worker that out-silences both windows between sweeps still
// passes through suspect before dead, so consumers always see the full
// healthy → suspect → dead sequence, one count per edge.
func (m *Master) sweepWorkerStates(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range m.workers {
		age := now.Sub(w.lastSeen)
		if w.state == WorkerHealthy && age > m.cfg.LivenessWindow {
			m.transitionWorker(w, WorkerSuspect)
		}
		if w.state == WorkerSuspect && age > 3*m.cfg.LivenessWindow {
			m.transitionWorker(w, WorkerDead)
			m.loseTask(w.id, "dead")
		}
	}
}
