package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// The event log is the cluster's structured operational journal: every
// load-bearing transition — job and phase boundaries, task dispatch,
// retries, stragglers, worker state changes — lands here as one
// leveled, attributed event. Storage is a bounded ring of per-slot
// locked cells: writers claim a slot with one atomic increment and touch
// only that slot's mutex, so concurrent producers never serialize on a
// global lock and the log can sit on dispatch paths. Readers snapshot
// the ring without stopping writers. Like the rest of the package it is
// nil-safe: a nil *EventLog drops everything, so call sites hold a bare
// handle with no branches.

// LogEvent is one recorded event. Seq is a process-wide monotonically
// increasing sequence number — the cursor for incremental consumers
// (/debug/events?since=N returns only newer events).
type LogEvent struct {
	Seq   uint64         `json:"seq"`
	Time  time.Time      `json:"time"`
	Level string         `json:"level"` // "debug", "info", "warn", "error"
	Msg   string         `json:"msg"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// levelIndex buckets a slog level into the four counter slots.
func levelIndex(l slog.Level) int {
	switch {
	case l < slog.LevelInfo:
		return 0
	case l < slog.LevelWarn:
		return 1
	case l < slog.LevelError:
		return 2
	default:
		return 3
	}
}

var levelNames = [4]string{"debug", "info", "warn", "error"}

// ParseLevel maps a level name ("debug", "info", "warn"/"warning",
// "error", any case) to its slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: unknown level %q", s)
}

// eventSlot is one ring cell. seq is 0 while the cell has never been
// written. The event is retained pre-rendered as its JSON line in a
// buffer recycled across ring wraps: a full ring is pointer-free bytes
// the garbage collector never traces, so a busy log does not inflate
// mark cost for the job computing next to it. Reads (rare) parse the
// line back; seq and level stay as fields so filters skip without
// parsing.
type eventSlot struct {
	mu    sync.Mutex
	seq   uint64
	level int8 // levelIndex of the recorded level
	line  []byte
}

// EventLog is a bounded, concurrency-friendly ring of structured events.
// All methods are safe for concurrent use and no-op on a nil receiver.
type EventLog struct {
	slots  []eventSlot
	seq    atomic.Uint64
	count  [4]atomic.Int64             // per-level totals since start
	bridge atomic.Pointer[[4]*Counter] // per-level registry counters, when bound
}

// NewEventLog returns an event log retaining the most recent capacity
// events (minimum 16; 1024 is a sensible default for a long-lived
// process). The log records every level; readers filter.
func NewEventLog(capacity int) *EventLog {
	if capacity < 16 {
		capacity = 16
	}
	return &EventLog{slots: make([]eventSlot, capacity)}
}

// Enabled reports whether an event at level would be recorded — the
// cheap pre-check for hot call sites that build attribute lists.
func (l *EventLog) Enabled(level slog.Level) bool {
	return l != nil && level >= slog.LevelDebug
}

// BindMetrics bridges the per-level event totals into reg as
// events_total{level} counters. Counts accumulated before binding are
// replayed so the series never under-reports.
func (l *EventLog) BindMetrics(reg *Registry) {
	if l == nil || reg == nil {
		return
	}
	var cs [4]*Counter
	for i, name := range levelNames {
		cs[i] = reg.Counter("events_total", L("level", name))
		cs[i].Add(l.count[i].Load())
	}
	l.bridge.Store(&cs)
}

// Log records one event. Attrs are flattened into the event's attribute
// map on read; later keys win. The write claims a ring slot with one
// atomic increment and locks only that slot — the attr slice is retained
// as-is, with no per-event map build.
func (l *EventLog) Log(level slog.Level, msg string, attrs ...Attr) {
	if !l.Enabled(level) {
		return
	}
	li := levelIndex(level)
	l.count[li].Add(1)
	if cs := l.bridge.Load(); cs != nil {
		cs[li].Inc()
	}
	now := time.Now()
	seq := l.seq.Add(1)
	slot := &l.slots[(seq-1)%uint64(len(l.slots))]
	slot.mu.Lock()
	slot.seq = seq
	slot.level = int8(li)
	slot.line = appendEventJSON(slot.line[:0], seq, now, levelNames[li], msg, attrs)
	slot.mu.Unlock()
}

// appendEventJSON renders one event as its JSON line (no trailing
// newline), matching the LogEvent encoding. Hand-rolled so the write
// path costs one buffer append instead of reflection and retained maps.
func appendEventJSON(b []byte, seq uint64, t time.Time, level, msg string, attrs []Attr) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"time":"`...)
	b = t.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","level":"`...)
	b = append(b, level...)
	b = append(b, `","msg":`...)
	b = appendJSONString(b, msg)
	if len(attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		for i, a := range attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, a.Key)
			b = append(b, ':')
			b = appendJSONValue(b, a.Value)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendJSONString appends s as a JSON string literal.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"':
			b = append(b, '\\', '"')
		case r == '\\':
			b = append(b, '\\', '\\')
		case r == '\n':
			b = append(b, '\\', 'n')
		case r == '\t':
			b = append(b, '\\', 't')
		case r < 0x20:
			b = append(b, `\u00`...)
			const hex = "0123456789abcdef"
			b = append(b, hex[r>>4], hex[r&0xf])
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}

// appendJSONValue appends an attribute value of any common scalar type;
// everything else is stringified.
func appendJSONValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return appendJSONString(b, x)
	case bool:
		return strconv.AppendBool(b, x)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return appendJSONString(b, strconv.FormatFloat(x, 'g', -1, 64))
		}
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case float32:
		return appendJSONValue(b, float64(x))
	case time.Duration:
		return appendJSONString(b, x.String())
	default:
		return appendJSONString(b, fmt.Sprint(v))
	}
}

// Debug, Info, Warn and Error are level shorthands for Log.
func (l *EventLog) Debug(msg string, attrs ...Attr) { l.Log(slog.LevelDebug, msg, attrs...) }
func (l *EventLog) Info(msg string, attrs ...Attr)  { l.Log(slog.LevelInfo, msg, attrs...) }
func (l *EventLog) Warn(msg string, attrs ...Attr)  { l.Log(slog.LevelWarn, msg, attrs...) }
func (l *EventLog) Error(msg string, attrs ...Attr) { l.Log(slog.LevelError, msg, attrs...) }

// LevelCounts returns the per-level totals since the log was created
// (dropped-by-ring events included — the counts are write-side).
func (l *EventLog) LevelCounts() map[string]int64 {
	out := make(map[string]int64, 4)
	if l == nil {
		return out
	}
	for i, name := range levelNames {
		out[name] = l.count[i].Load()
	}
	return out
}

// Events returns the retained events with Seq > since and level >= min,
// in sequence order, parsed back from their stored lines — the form
// tests assert on. A wrapped ring returns only the surviving tail —
// consumers detect loss by a gap between their cursor and the first
// returned Seq.
func (l *EventLog) Events(since uint64, min slog.Level) []LogEvent {
	if l == nil {
		return nil
	}
	out := make([]LogEvent, 0, len(l.slots))
	for _, line := range l.lines(since, min) {
		var ev LogEvent
		if json.Unmarshal(line, &ev) == nil {
			out = append(out, ev)
		}
	}
	return out
}

// lines snapshots the retained, filter-matching JSON lines in sequence
// order. Each line is copied out under its slot lock so later writes
// cannot mutate the returned bytes.
func (l *EventLog) lines(since uint64, min slog.Level) [][]byte {
	type seqLine struct {
		seq  uint64
		line []byte
	}
	matched := make([]seqLine, 0, len(l.slots))
	minIdx := levelIndex(min)
	for i := range l.slots {
		s := &l.slots[i]
		s.mu.Lock()
		if s.seq > since && int(s.level) >= minIdx {
			matched = append(matched, seqLine{s.seq, append([]byte(nil), s.line...)})
		}
		s.mu.Unlock()
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].seq < matched[j].seq })
	out := make([][]byte, len(matched))
	for i, m := range matched {
		out[i] = m.line
	}
	return out
}

// WriteJSONLines writes the retained events matching the filters — the
// most recent limit of them when limit > 0 — as one JSON object per
// line, exactly as they were rendered when logged: the body of
// /debug/events and of the shutdown dump.
func (l *EventLog) WriteJSONLines(w io.Writer, since uint64, min slog.Level, limit int) error {
	if l == nil {
		return nil
	}
	lines := l.lines(since, min)
	if limit > 0 && len(lines) > limit {
		lines = lines[len(lines)-limit:]
	}
	for _, line := range lines {
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Context plumbing

type eventLogKey struct{}

// WithEventLog installs log as the context's event destination.
func WithEventLog(ctx context.Context, log *EventLog) context.Context {
	return context.WithValue(ctx, eventLogKey{}, log)
}

// EventLogFrom returns the context's event log; nil when event logging
// is off (and a nil *EventLog is safe to use directly).
func EventLogFrom(ctx context.Context) *EventLog {
	log, _ := ctx.Value(eventLogKey{}).(*EventLog)
	return log
}

// ---------------------------------------------------------------------------
// HTTP exposition

// EventsPath is where MountEvents serves the log.
const EventsPath = "/debug/events"

// MountEvents serves the event log as JSON lines at /debug/events.
// ?level=info filters to that level and above, ?since=N returns only
// events with Seq > N (the incremental cursor), ?limit=N keeps only the
// most recent N matching events. A nil log is a 404.
func MountEvents(mux *http.ServeMux, log *EventLog) {
	HandleJSON(mux, EventsPath, func(p Params) (any, int, error) {
		if log == nil {
			return nil, http.StatusNotFound, errors.New("event log off")
		}
		return JSONLines(func(w io.Writer) error {
			return log.WriteJSONLines(w, p.Since, p.Level, p.Limit)
		}), 0, nil
	})
}

// HealthPath is where MountHealth serves the health summary.
const HealthPath = "/debug/health"

// MountHealth serves source() at /debug/health. The source is called
// per request (so the summary is always current). A nil source is a 404;
// a source that returns nil is a 503 — a server that cannot assemble its
// health picture is not healthy.
func MountHealth(mux *http.ServeMux, source func() any) {
	HandleJSON(mux, HealthPath, func(Params) (any, int, error) {
		if source == nil {
			return nil, http.StatusNotFound, errors.New("no health source")
		}
		if h := source(); h != nil {
			return h, 0, nil
		}
		return nil, http.StatusServiceUnavailable, errors.New("health unavailable")
	})
}

// DumpOps writes a final operational snapshot — the retained events at
// info and above as JSON lines, then a Prometheus metrics snapshot — the
// graceful-shutdown flush shared by the binaries. Either source may be
// nil; section headers are comment lines so the dump stays greppable
// and line-parseable.
func DumpOps(w io.Writer, log *EventLog, reg *Registry) error {
	if log != nil {
		if _, err := fmt.Fprintln(w, "# event log (retained events, oldest first)"); err != nil {
			return err
		}
		if err := log.WriteJSONLines(w, 0, slog.LevelInfo, 0); err != nil {
			return err
		}
	}
	if reg != nil {
		if _, err := fmt.Fprintln(w, "# final metrics snapshot"); err != nil {
			return err
		}
		return reg.WritePrometheus(w)
	}
	return nil
}
