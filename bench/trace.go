package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The harness records its own spans — around its calls into each layer —
// and does not use internal/telemetry for this, because telemetry is one
// of the measured layers. Spans stay in memory and are written when the
// run ends.

// span is one timed call. Start and End are nanoseconds since the tracer
// was created; Parent is a span ID, 0 for a root; Run is shared by every
// span of one job or request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerBench marks spans of the harness's own glue (job, stage, request
// wrappers). Their self time is harness time, not a layer's.
const layerBench = "bench"

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a new span, passing it the span's ID for children,
// and returns the span's duration in seconds.
func (t *tracer) do(parent int, run, layer, name string, fn func(id int)) float64 {
	t.mu.Lock()
	id := len(t.spans) + 1
	start := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Layer: layer, Name: name, Start: start})
	t.mu.Unlock()
	fn(id)
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
	return float64(end-start) / 1e9
}

// add records a root span that was timed by the caller.
func (t *tracer) add(run, layer, name string, start time.Time, d time.Duration) {
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Run: run, Layer: layer, Name: name, Start: s, End: s + d.Nanoseconds()})
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// call is do for a leaf span.
func (t *tracer) call(parent int, run, layer, name string, fn func()) float64 {
	return t.do(parent, run, layer, name, func(int) { fn() })
}

// selfSeconds returns, per layer, the summed self time of one run's spans:
// a span's duration minus the part its children cover. Children of one
// parent run one after another on the replay goroutine, so their durations
// add.
func selfSeconds(spans []span, run string) map[string]float64 {
	children := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.Run == run {
			out[s.Layer] += float64(s.End-s.Start-children[s.ID]) / 1e9
		}
	}
	return out
}

// traceFile is what a traced run writes. Serve requests are aggregated per
// path and only the first requestSpanCap spans of each path are kept.
type traceFile struct {
	Workload   string                  `json:"workload"`
	Provenance provenance              `json:"provenance"`
	LayerSelf  map[string]float64      `json:"replay_layer_self_seconds"`
	Requests   map[string]requestStats `json:"serve_requests_by_path,omitempty"`
	Spans      []span                  `json:"spans"`
}

type requestStats struct {
	Count  int     `json:"count"`
	MeanUS float64 `json:"mean_us"`
	MaxUS  float64 `json:"max_us"`
}

const requestSpanCap = 1000

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
