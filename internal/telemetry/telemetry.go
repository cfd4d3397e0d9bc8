// Package telemetry is the process-wide observability substrate shared
// by the MapReduce engine, the RPC cluster and the registry server: a
// metrics registry of atomic counters, gauges and fixed-bucket
// histograms with Prometheus text-format exposition and an
// expvar-style snapshot API; hierarchical span tracing exportable as
// Chrome trace_event JSON (viewable in chrome://tracing or Perfetto);
// standard process gauges; and one-call net/http/pprof mounting.
//
// The package is dependency-free (standard library only) and built to
// stay off the hot path: every metric update is a single atomic
// operation, all metric methods are nil-receiver safe so call sites
// can hold nil handles when telemetry is off, and tracing costs one
// context lookup when no tracer is installed (the nil-sink fast path).
// Library code never enables telemetry on its own — a caller must pass
// a *Registry or install a *Tracer in the context.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing value. The zero value is ready
// to use; a nil *Counter silently drops updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by delta. Negative deltas are ignored —
// counters only go up.
func (c *Counter) Add(delta int64) {
	if c == nil || delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. The zero value is ready to
// use; a nil *Gauge silently drops updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by delta (negative deltas decrement).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds in ascending order; an implicit +Inf bucket catches the
// overflow. The zero value is not usable — histograms come from
// Registry.Histogram. A nil *Histogram silently drops observations.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n identical observations in one shot — the bulk
// path for feeding pre-aggregated data (e.g. latency.Tracker buckets)
// into the registry.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has len(Bounds)+1
	// entries, the last being the +Inf overflow bucket. Counts are
	// per-bucket (not cumulative).
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// ExpBuckets returns n ascending bucket bounds starting at start and
// multiplying by factor — the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		return []float64{start}
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets is the default latency histogram shape: 100µs to
// ~100s in ×2.5 steps (values in seconds).
func DurationBuckets() []float64 { return ExpBuckets(100e-6, 2.5, 16) }

// kind discriminates series types inside the registry.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered metric series (a name plus a label set).
// id is the rendered exposition key (seriesID), cached at creation so
// sampling visits re-use it instead of re-rendering; countID/sumID are
// the derived histogram sample keys, filled lazily on first visit.
type series struct {
	name    string
	labels  []Label
	kind    kind
	id      string
	countID string
	sumID   string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds metric series and hands out get-or-create handles.
// Safe for concurrent use. A nil *Registry returns nil metric handles
// from every getter, so "telemetry off" call sites need no branches.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*series
	hooks  []func(*Registry)
	hookMu sync.Mutex // one scrape's hooks at a time: hooks keep scratch state
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// OnScrape registers a hook run before every exposition or snapshot —
// the place to refresh sampled gauges (process stats, queue depths).
// Hooks must be fast and must not call OnScrape.
func (r *Registry) OnScrape(f func(*Registry)) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, f)
	r.mu.Unlock()
}

// runHooks executes scrape hooks outside the registry lock, one caller
// at a time: the sampler, a /metrics scrape and a cluster snapshot may
// all arrive together, and a hook (the procfs reader) reuses a buffer.
func (r *Registry) runHooks() {
	r.mu.RLock()
	hooks := make([]func(*Registry), len(r.hooks))
	copy(hooks, r.hooks)
	r.mu.RUnlock()
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	for _, f := range hooks {
		f(r)
	}
}

// seriesID renders the canonical map key for a name + label set.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// lookup returns the series for id, creating it with mk when absent.
// Registering the same name with a different kind panics: that is a
// programming error, not an operational condition.
func (r *Registry) lookup(name string, labels []Label, k kind, mk func() *series) *series {
	id := seriesID(name, sortedLabels(labels))
	r.mu.RLock()
	s, ok := r.series[id]
	r.mu.RUnlock()
	if ok {
		if s.kind != k {
			panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", id, s.kind, k))
		}
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[id]; ok {
		if s.kind != k {
			panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", id, s.kind, k))
		}
		return s
	}
	s = mk()
	s.id = id
	r.series[id] = s
	return s
}

// sortedLabels returns labels ordered by key for a canonical series ID.
func sortedLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return labels
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Counter returns the counter series for name + labels, creating it on
// first use. Nil registries return nil (a no-op counter).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	ls := sortedLabels(labels)
	s := r.lookup(name, ls, kindCounter, func() *series {
		return &series{name: name, labels: ls, kind: kindCounter, counter: &Counter{}}
	})
	return s.counter
}

// Gauge returns the gauge series for name + labels, creating it on
// first use. Nil registries return nil (a no-op gauge).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	ls := sortedLabels(labels)
	s := r.lookup(name, ls, kindGauge, func() *series {
		return &series{name: name, labels: ls, kind: kindGauge, gauge: &Gauge{}}
	})
	return s.gauge
}

// Histogram returns the histogram series for name + labels, creating
// it with the given bucket bounds on first use (later calls reuse the
// first bounds). Nil registries return nil (a no-op histogram).
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	ls := sortedLabels(labels)
	s := r.lookup(name, ls, kindHistogram, func() *series {
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		sort.Float64s(bs)
		return &series{name: name, labels: ls, kind: kindHistogram,
			countID: seriesID(name+"_count", ls),
			sumID:   seriesID(name+"_sum", ls),
			hist: &Histogram{
				bounds:  bs,
				buckets: make([]atomic.Int64, len(bs)+1),
			}}
	})
	return s.hist
}

// Snapshot is the expvar-style dump of a registry: every series keyed
// by its rendered name (labels included).
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// VisitSamples runs the scrape hooks and then calls f once per scalar
// sample: counters and gauges with their rendered series id and value,
// histograms as two derived samples (<name>_count and <name>_sum, the
// pair windowed-rate math needs). All ids are cached at series creation,
// so steady-state visits allocate nothing — this is the time-series
// sampler's zero-allocation scrape path. f must not call back into the
// registry's registration methods.
func (r *Registry) VisitSamples(f func(id string, v float64)) {
	if r == nil {
		return
	}
	r.runHooks()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, s := range r.series {
		switch s.kind {
		case kindCounter:
			f(s.id, float64(s.counter.Value()))
		case kindGauge:
			f(s.id, s.gauge.Value())
		case kindHistogram:
			f(s.countID, float64(s.hist.count.Load()))
			f(s.sumID, math.Float64frombits(s.hist.sumBits.Load()))
		}
	}
}

// ParseSeriesID splits a rendered series id — exactly the keys
// WritePrometheus emits and ParsePrometheus returns — back into its
// metric name and label set, unescaping label values. The inverse of
// seriesID, so parse-rerender round-trips are exact.
func ParseSeriesID(id string) (name string, labels []Label, err error) {
	brace := strings.IndexByte(id, '{')
	if brace < 0 {
		return id, nil, nil
	}
	if !strings.HasSuffix(id, "}") {
		return "", nil, fmt.Errorf("telemetry: series %q: unterminated label set", id)
	}
	name = id[:brace]
	rest := id[brace+1 : len(id)-1]
	for len(rest) > 0 {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
			return "", nil, fmt.Errorf("telemetry: series %q: malformed label pair", id)
		}
		key := rest[:eq]
		rest = rest[eq+2:]
		// Scan the quoted value respecting backslash escapes.
		var b strings.Builder
		i := 0
		closed := false
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case '\\':
					b.WriteByte('\\')
				case 'n':
					b.WriteByte('\n')
				case '"':
					b.WriteByte('"')
				default:
					return "", nil, fmt.Errorf("telemetry: series %q: bad escape \\%c", id, rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		if !closed {
			return "", nil, fmt.Errorf("telemetry: series %q: unterminated label value", id)
		}
		labels = append(labels, Label{Key: key, Value: b.String()})
		rest = rest[i:]
		if len(rest) > 0 {
			if rest[0] != ',' {
				return "", nil, fmt.Errorf("telemetry: series %q: expected ',' between labels", id)
			}
			rest = rest[1:]
		}
	}
	return name, labels, nil
}

// RenderSeriesID is the public inverse of ParseSeriesID: the canonical
// exposition key for a name plus label set (labels sorted by key,
// values escaped).
func RenderSeriesID(name string, labels []Label) string {
	return seriesID(name, sortedLabels(labels))
}

// Snapshot runs the scrape hooks and copies every series.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return snap
	}
	r.runHooks()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for id, s := range r.series {
		switch s.kind {
		case kindCounter:
			snap.Counters[id] = s.counter.Value()
		case kindGauge:
			snap.Gauges[id] = s.gauge.Value()
		case kindHistogram:
			snap.Histograms[id] = s.hist.Snapshot()
		}
	}
	return snap
}
