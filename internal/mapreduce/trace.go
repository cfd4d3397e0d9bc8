package mapreduce

import (
	"encoding/json"
	"io"
	"log/slog"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Event is one engine lifecycle event, for job observability (the
// JobTracker page of the Hadoop era). Events are best-effort telemetry:
// they never affect job results.
type Event struct {
	// Time is when the event fired.
	Time time.Time `json:"time"`
	// Job is the Config.Name of the job.
	Job string `json:"job"`
	// Kind is one of "job-start", "phase-start", "phase-end",
	// "task-start", "task-end", "task-retry", "spill", "job-end".
	Kind string `json:"kind"`
	// Phase is "map", "shuffle" or "reduce" for phase/task events.
	Phase string `json:"phase,omitempty"`
	// Task is the task index for task events, -1 otherwise.
	Task int `json:"task"`
	// Err carries the failure message of a task-retry event.
	Err string `json:"err,omitempty"`
	// Worker is the 1-based worker slot that executed a task (0 when
	// unknown or not applicable), so event streams can be folded into
	// per-worker timelines.
	Worker int `json:"worker,omitempty"`
	// Duration is the wall time of the finished task or phase, set on
	// "task-end" and "phase-end" events.
	Duration time.Duration `json:"duration_ns,omitempty"`
	// Records counts what flowed through: input records for a map
	// task-end, output points for a reduce task-end, and the phase's
	// framework-counter volume for phase-end events (map out, shuffle
	// records, reduce out).
	Records int64 `json:"records,omitempty"`
	// Bytes is the on-disk volume of a "spill" event, 0 otherwise.
	Bytes int64 `json:"bytes,omitempty"`
}

// EventSink receives engine events. Implementations must be safe for
// concurrent use; Emit must not block for long (it runs on task
// goroutines).
type EventSink interface {
	Emit(Event)
}

// MemorySink collects events in memory, primarily for tests and
// small-scale debugging.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements EventSink.
func (s *MemorySink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of the collected events.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// JSONSink streams events as JSON lines to a writer.
type JSONSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONSink wraps w.
func NewJSONSink(w io.Writer) *JSONSink {
	return &JSONSink{enc: json.NewEncoder(w)}
}

// Emit implements EventSink. Encoding errors are dropped: tracing must
// never fail a job.
func (s *JSONSink) Emit(e Event) {
	s.mu.Lock()
	_ = s.enc.Encode(e)
	s.mu.Unlock()
}

// LogSink bridges engine events into a telemetry.EventLog, so in-process
// jobs share the /debug/events stream with the cluster layer. Per-record
// paths never emit events, so the bridge's cost is bounded by task and
// phase counts.
type LogSink struct {
	Log *telemetry.EventLog
}

// NewLogSink adapts log; a nil log yields a sink that drops everything
// (the EventLog is nil-safe).
func NewLogSink(log *telemetry.EventLog) *LogSink { return &LogSink{Log: log} }

// Wants implements the engine's kind filter: per-task chatter is never
// bridged (the flight recorder and tracer own that detail), and the
// rest is declined when the log's level would drop it anyway.
func (s *LogSink) Wants(kind string) bool {
	switch kind {
	case "task-start", "task-end":
		return false
	case "task-retry":
		return s.Log.Enabled(slog.LevelWarn)
	}
	return s.Log.Enabled(slog.LevelInfo)
}

// Emit implements EventSink: retries are warnings, everything else is
// informational, and task start/end land at debug so a default info view
// shows job and phase boundaries without per-task noise.
func (s *LogSink) Emit(e Event) {
	level := slog.LevelInfo
	switch e.Kind {
	case "task-retry":
		level = slog.LevelWarn
	case "task-start", "task-end":
		// Per-task chatter belongs to the flight recorder and tracer;
		// bridging it would put allocations on every task of every job.
		// The event log keeps to phase boundaries, retries and spills.
		return
	}
	if !s.Log.Enabled(level) {
		return
	}
	attrs := make([]telemetry.Attr, 0, 8)
	attrs = append(attrs, telemetry.A("job", e.Job))
	if e.Phase != "" {
		attrs = append(attrs, telemetry.A("phase", e.Phase))
	}
	if e.Task >= 0 {
		attrs = append(attrs, telemetry.A("task", e.Task))
	}
	if e.Worker > 0 {
		attrs = append(attrs, telemetry.A("worker", e.Worker))
	}
	if e.Duration > 0 {
		attrs = append(attrs, telemetry.A("seconds", e.Duration.Seconds()))
	}
	if e.Records > 0 {
		attrs = append(attrs, telemetry.A("records", e.Records))
	}
	if e.Bytes > 0 {
		attrs = append(attrs, telemetry.A("bytes", e.Bytes))
	}
	if e.Err != "" {
		attrs = append(attrs, telemetry.A("err", e.Err))
	}
	s.Log.Log(level, e.Kind, attrs...)
}

// emit sends a bare lifecycle event if a sink is configured.
func (c Config) emit(kind, phase string, task int, errMsg string) {
	c.emitEvent(Event{Kind: kind, Phase: phase, Task: task, Err: errMsg})
}

// kindFilter is the optional EventSink refinement the engine probes on
// hot paths: a sink that declines a kind up front saves the timestamp,
// the event copy and the interface dispatch on every task of every job.
type kindFilter interface {
	Wants(kind string) bool
}

// emitEvent stamps and sends a pre-filled event if a sink is
// configured — the path for events carrying worker/duration/records.
func (c Config) emitEvent(e Event) {
	if c.Trace == nil {
		return
	}
	if f, ok := c.Trace.(kindFilter); ok && !f.Wants(e.Kind) {
		return
	}
	e.Time = time.Now()
	e.Job = c.Name
	c.Trace.Emit(e)
}
