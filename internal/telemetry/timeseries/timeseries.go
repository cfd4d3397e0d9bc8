// Package timeseries gives the metrics registry a memory: each Sample of
// a Sampler copies every scalar series of a telemetry.Registry into
// bounded in-memory rings, turning the registry's instantaneous values
// into short history that windowed queries — rate, min/max, quantile —
// and the anomaly watchdog can reason about. A /debug/timeseries mount
// serves the rings as JSON for dashboards (skytop draws its sparklines
// from it).
//
// The sample path is allocation-free after warm-up: series ids are
// cached inside the registry (telemetry.VisitSamples), ring slots are
// pre-sized float64 arrays, and the per-tick work is one map lookup and
// one store per series. New series allocate their ring exactly once,
// on first sight.
package timeseries

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Config tunes a Sampler.
type Config struct {
	// Interval is the cadence the sampler's owner calls Sample at; the
	// sampler only reports it, in the /debug/timeseries document.
	Interval time.Duration
	// Retention is how many samples each series ring keeps. Defaults to
	// 300 (5 minutes at a 1s cadence); RetentionFor derives it when
	// objectives need a longer memory.
	Retention int
}

// defaultRetention is the ring size without objectives: 5 minutes at 1s.
const defaultRetention = 300

// Point is one recorded sample of one series.
type Point struct {
	UnixNano int64   `json:"t"`
	Value    float64 `json:"v"`
}

// ring is one series' bounded value history, aligned with the sampler's
// shared timestamp ring: slot i holds the value recorded at tick t where
// t % retention == i. Slots from before the series existed hold NaN. The
// series id is parsed once, on first sight, so selecting rings by family
// and labels (Objective) never parses or allocates.
type ring struct {
	vals   []float64
	name   string
	labels []telemetry.Label
}

// Sampler owns the rings. It has no loop of its own: its owner (the
// debugserver plane's clock; a test) calls Sample. All methods are safe
// for concurrent use; a nil *Sampler answers every query empty, so call
// sites can hold a bare handle when sampling is off.
type Sampler struct {
	reg *telemetry.Registry
	cfg Config
	now func() time.Time // test hook

	mu     sync.RWMutex
	times  []int64 // shared timestamp ring, unix nanos; 0 = never written
	tick   int     // total samples taken
	series map[string]*ring

	// visit is the pre-bound VisitSamples callback, hoisted so the
	// steady-state sample path closes over nothing per tick.
	visit func(id string, v float64)
	slot  int // ring slot the in-progress sample writes (mu held)
}

// NewSampler builds a sampler over reg.
func NewSampler(reg *telemetry.Registry, cfg Config) *Sampler {
	if cfg.Retention < 2 {
		cfg.Retention = defaultRetention
	}
	s := &Sampler{
		reg:    reg,
		cfg:    cfg,
		now:    time.Now,
		times:  make([]int64, cfg.Retention),
		series: make(map[string]*ring),
	}
	s.visit = func(id string, v float64) {
		r := s.series[id]
		if r == nil {
			r = &ring{vals: make([]float64, cfg.Retention)}
			r.name, r.labels, _ = telemetry.ParseSeriesID(id)
			for i := range r.vals {
				r.vals[i] = math.NaN()
			}
			s.series[id] = r
		}
		r.vals[s.slot] = v
	}
	return s
}

// Sample takes one sample of every registry series right now.
func (s *Sampler) Sample() {
	if s == nil {
		return
	}
	now := s.now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slot = s.tick % s.cfg.Retention
	s.times[s.slot] = now
	s.reg.VisitSamples(s.visit)
	s.tick++
}

// Samples reports how many samples have been taken (monotonic; the
// rings retain min(Samples, Retention) of them).
func (s *Sampler) Samples() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tick
}

// SeriesNames returns every sampled series id, sorted.
func (s *Sampler) SeriesNames() []string {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.series))
	for id := range s.series {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Window returns the samples of series id recorded within the trailing
// window (all retained samples when window <= 0), oldest first. Slots
// from before the series existed are omitted.
func (s *Sampler) Window(id string, window time.Duration) []Point {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.windowLocked(id, window)
}

// windowLocked is Window with s.mu already held (read side).
func (s *Sampler) windowLocked(id string, window time.Duration) []Point {
	r := s.series[id]
	if r == nil || s.tick == 0 {
		return nil
	}
	n := s.tick
	if n > s.cfg.Retention {
		n = s.cfg.Retention
	}
	var cutoff int64
	if window > 0 {
		cutoff = s.now().Add(-window).UnixNano()
	}
	out := make([]Point, 0, n)
	// Oldest retained tick first.
	for t := s.tick - n; t < s.tick; t++ {
		i := t % s.cfg.Retention
		v := r.vals[i]
		if math.IsNaN(v) || s.times[i] < cutoff {
			continue
		}
		out = append(out, Point{UnixNano: s.times[i], Value: v})
	}
	return out
}

// Rate computes the per-second increase of a cumulative series over the
// trailing window as the sum of positive step deltas divided by the
// elapsed time. Negative steps — a counter reset after a process
// restart — contribute zero instead of going negative, so restarting a
// worker can never render negative throughput. ok is false with fewer
// than two samples in the window.
func (s *Sampler) Rate(id string, window time.Duration) (perSec float64, ok bool) {
	pts := s.Window(id, window)
	if len(pts) < 2 {
		return 0, false
	}
	var rise float64
	for i := 1; i < len(pts); i++ {
		if d := pts[i].Value - pts[i-1].Value; d > 0 {
			rise += d
		}
	}
	dt := float64(pts[len(pts)-1].UnixNano-pts[0].UnixNano) / 1e9
	if dt <= 0 {
		return 0, false
	}
	return rise / dt, true
}

// Last returns the most recent sample of series id.
func (s *Sampler) Last(id string) (Point, bool) {
	pts := s.Window(id, 0)
	if len(pts) == 0 {
		return Point{}, false
	}
	return pts[len(pts)-1], true
}
