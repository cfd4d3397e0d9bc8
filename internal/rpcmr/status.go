package rpcmr

// Status is a snapshot of the master's state, served both locally
// (Master.Status) and over RPC (Master.Status service method) so
// operators and tests can watch job progress.
type Status struct {
	// Workers is the number of distinct registered workers.
	Workers int
	// LiveWorkers counts workers seen within the liveness window
	// (MasterConfig.LivenessWindow, 10s by default).
	LiveWorkers int
	// JobRunning reports whether a job is in flight.
	JobRunning bool
	// JobName is the running job's registered name.
	JobName string
	// Phase is TaskMap or TaskReduce while running.
	Phase TaskKind
	// TasksTotal and TasksDone count the current phase's tasks.
	TasksTotal, TasksDone int
	// Pending is the current phase's queue length (excludes running).
	Pending int
	// TaskRetries is the cumulative count of task re-executions across
	// all jobs, whatever the cause (worker error reports and lost workers
	// alike).
	TaskRetries int64
	// WorkerFailures is the cumulative count of tasks lost with their
	// worker — it went dead, or asked for work again, while holding them.
	// A climbing
	// TaskRetries with flat WorkerFailures means a flaky job or worker
	// that still reports in; both climbing together means workers are
	// dying or stalling.
	WorkerFailures int64
}

// Status returns a snapshot of master state: Health's, projected. A worker
// is live when it last called in within the liveness window.
func (m *Master) Status() Status {
	h := m.Health()
	st := Status{
		Workers:        len(h.Workers),
		JobRunning:     h.JobRunning,
		JobName:        h.Job,
		Phase:          h.phase,
		TasksTotal:     h.TasksTotal,
		TasksDone:      h.TasksDone,
		Pending:        h.QueueDepth,
		TaskRetries:    h.TaskRetries,
		WorkerFailures: h.WorkerFailures,
	}
	for _, w := range h.Workers {
		if w.LastSeenAgeSeconds <= m.cfg.LivenessWindow.Seconds() {
			st.LiveWorkers++
		}
	}
	return st
}

// StatusArgs is the (empty) RPC request.
type StatusArgs struct{}

// Status implements the RPC surface for Master.Status.
func (s *MasterService) Status(args StatusArgs, reply *Status) error {
	*reply = s.m.Status()
	return nil
}
