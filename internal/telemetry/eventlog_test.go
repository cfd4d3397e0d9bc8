package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventLogRingWraparoundOrdering(t *testing.T) {
	l := NewEventLog(16)
	for i := 0; i < 40; i++ {
		l.Info(fmt.Sprintf("event-%d", i), A("i", i))
	}
	events := l.Events(0, slog.LevelDebug)
	if len(events) != 16 {
		t.Fatalf("retained %d events, want ring capacity 16", len(events))
	}
	// The ring keeps the most recent 16 (seq 25..40), in sequence order.
	for i, ev := range events {
		want := uint64(25 + i)
		if ev.Seq != want {
			t.Fatalf("event %d: seq %d, want %d", i, ev.Seq, want)
		}
		if ev.Msg != fmt.Sprintf("event-%d", want-1) {
			t.Fatalf("event %d: msg %q does not match seq %d", i, ev.Msg, ev.Seq)
		}
	}
}

func TestEventLogLevelAndSinceFilters(t *testing.T) {
	l := NewEventLog(64)
	l.Debug("d1")
	l.Info("i1")
	l.Warn("w1")
	l.Error("e1")
	l.Info("i2")

	if got := len(l.Events(0, slog.LevelWarn)); got != 2 {
		t.Fatalf("level>=warn: %d events, want 2 (w1, e1)", got)
	}
	got := l.Events(3, slog.LevelDebug)
	if len(got) != 2 || got[0].Msg != "e1" || got[1].Msg != "i2" {
		t.Fatalf("since=3: got %+v, want [e1 i2]", got)
	}
	counts := l.LevelCounts()
	for level, want := range map[string]int64{"debug": 1, "info": 2, "warn": 1, "error": 1} {
		if counts[level] != want {
			t.Fatalf("count[%s] = %d, want %d", level, counts[level], want)
		}
	}
}

func TestEventLogMetricsBridge(t *testing.T) {
	l := NewEventLog(16)
	l.Info("before-bind") // pre-bind counts must be replayed
	reg := NewRegistry()
	l.BindMetrics(reg)
	l.Warn("after-bind")
	l.Warn("after-bind-2")
	snap := reg.Snapshot()
	if got := snap.Counters[`events_total{level="info"}`]; got != 1 {
		t.Fatalf("info counter = %d, want 1", got)
	}
	if got := snap.Counters[`events_total{level="warn"}`]; got != 2 {
		t.Fatalf("warn counter = %d, want 2", got)
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Info("dropped")
	l.BindMetrics(NewRegistry())
	if got := l.Events(0, slog.LevelDebug); got != nil {
		t.Fatalf("nil log returned events: %v", got)
	}
	if err := l.WriteJSONLines(io.Discard, 0, slog.LevelDebug, 0); err != nil {
		t.Fatalf("nil log failed to write nothing: %v", err)
	}
}

func TestEventLogConcurrentWriters(t *testing.T) {
	l := NewEventLog(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Info("concurrent", A("g", g), A("i", i))
			}
		}(g)
	}
	wg.Wait()
	events := l.Events(0, slog.LevelDebug)
	if len(events) != 128 {
		t.Fatalf("retained %d, want 128", len(events))
	}
	if got := events[127].Seq; got != 1600 {
		t.Fatalf("last seq = %d, want 1600", got)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("events out of order: seq %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}
}

// TestEventLinesDecodeLikeEvents: /debug/events and the shutdown dump
// write each event's stored line as it is, where they used to parse it
// (Events) and encode it again. Over a fixture of every attribute type
// and the characters that need escaping, each written line must decode
// to exactly the LogEvent that round trip produced.
func TestEventLinesDecodeLikeEvents(t *testing.T) {
	l := NewEventLog(16)
	l.Debug("bare")
	l.Info("scalars", A("s", "w\"0\\\n\t\x01é"), A("i", -7), A("i64", int64(1)<<40), A("u", uint64(9)),
		A("f", 0.25), A("f32", float32(1.5)), A("b", true), A("d", 1500*time.Millisecond))
	l.Warn("odd", A("nan", math.NaN()), A("inf", math.Inf(-1)), A("err", fmt.Errorf("boom")), A("k", "first"), A("z", nil))
	l.Error("msg \"quoted\"", A("job", "j"))

	var want []LogEvent
	for _, ev := range l.Events(0, slog.LevelDebug) {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		var back LogEvent
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		want = append(want, back)
	}
	var buf bytes.Buffer
	if err := l.WriteJSONLines(&buf, 0, slog.LevelDebug, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(want) || len(want) != 4 {
		t.Fatalf("%d lines for %d events, want 4 of each", len(lines), len(want))
	}
	for i, line := range lines {
		var got LogEvent
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("line %d decodes to %+v, want %+v", i, got, want[i])
		}
	}
}

func TestMountEventsHTTP(t *testing.T) {
	l := NewEventLog(32)
	l.Debug("d1")
	l.Info("i1", A("worker", "w0"))
	l.Warn("w1")
	mux := http.NewServeMux()
	MountEvents(mux, l)

	get := func(url string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, url, nil))
		return rr
	}

	rr := get(EventsPath)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := strings.Split(strings.TrimSpace(rr.Body.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3: %q", len(lines), rr.Body.String())
	}
	var ev LogEvent
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if ev.Msg != "i1" || ev.Attrs["worker"] != "w0" {
		t.Fatalf("line 2 = %+v", ev)
	}

	if lines := strings.Split(strings.TrimSpace(get(EventsPath+"?level=warn").Body.String()), "\n"); len(lines) != 1 {
		t.Fatalf("level=warn: %d lines, want 1", len(lines))
	}
	if lines := strings.Split(strings.TrimSpace(get(EventsPath+"?since=2").Body.String()), "\n"); len(lines) != 1 {
		t.Fatalf("since=2: %d lines, want 1", len(lines))
	}
	if lines := strings.Split(strings.TrimSpace(get(EventsPath+"?limit=2").Body.String()), "\n"); len(lines) != 2 || !strings.Contains(lines[1], `"w1"`) {
		t.Fatalf("limit=2: lines %q, want the most recent 2", lines)
	}
	if rr := get(EventsPath + "?level=nope"); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad level: status %d, want 400", rr.Code)
	}
	if rr := get(EventsPath + "?since=abc"); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad since: status %d, want 400", rr.Code)
	}
}

func TestMountHealthHTTP(t *testing.T) {
	mux := http.NewServeMux()
	type health struct {
		Status string `json:"status"`
	}
	var src func() any = func() any { return health{Status: "ok"} }
	MountHealth(mux, func() any { return src() })

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, HealthPath, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var h health
	if err := json.Unmarshal(rr.Body.Bytes(), &h); err != nil || h.Status != "ok" {
		t.Fatalf("body %q, err %v", rr.Body.String(), err)
	}

	src = func() any { return nil }
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, HealthPath, nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("nil health: status %d, want 503", rr.Code)
	}
}

func TestDumpOps(t *testing.T) {
	l := NewEventLog(16)
	l.Info("shutdown", A("signal", "terminated"))
	reg := NewRegistry()
	reg.Counter("requests_total").Inc()
	var b strings.Builder
	if err := DumpOps(&b, l, reg); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# event log") {
		t.Fatalf("missing event header:\n%s", out)
	}
	if !strings.Contains(out, `"msg":"shutdown"`) {
		t.Fatalf("missing event line:\n%s", out)
	}
	if !strings.Contains(out, "requests_total 1") {
		t.Fatalf("missing metrics snapshot:\n%s", out)
	}
}

func TestEventLogContext(t *testing.T) {
	if EventLogFrom(context.Background()) != nil {
		t.Fatal("empty context has an event log")
	}
	l := NewEventLog(16)
	ctx := WithEventLog(context.Background(), l)
	if EventLogFrom(ctx) != l {
		t.Fatal("event log not plumbed through context")
	}
}
