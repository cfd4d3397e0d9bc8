package telemetry

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// SLO tracking: objectives ("p99 latency under 5ms", "99.9% of requests
// succeed") are evaluated as error budgets with multi-window burn rates,
// the way an SRE alert would — burn rate is the rate at which the error
// budget is being consumed relative to the sustainable rate, so a burn of
// 1.0 spends exactly the budget over the objective's life and a burn of
// 10 exhausts it ten times too fast. Sources are cumulative (histogram
// snapshots, good/bad counters); the tracker differences them against a
// sampled history, so short windows see recent behaviour and the overall
// figures see everything since the tracker started.

// SLOSample is one cumulative good/bad observation pair.
type SLOSample struct {
	Good, Bad int64
}

// Total returns good+bad.
func (s SLOSample) Total() int64 { return s.Good + s.Bad }

// SLOSource reports the cumulative good/bad split for one objective. For
// a latency objective, "bad" is requests slower than the threshold; for
// an availability objective, failed requests.
type SLOSource func() SLOSample

// LatencySLOSource builds a source from a histogram handle: observations
// in buckets whose upper bound is at or below threshold count as good.
// The threshold is effectively rounded down to a bucket boundary — pick
// thresholds on bucket bounds (DurationBuckets is ×2.5 from 100µs) for
// exact accounting.
func LatencySLOSource(h *Histogram, threshold time.Duration) SLOSource {
	t := threshold.Seconds()
	return func() SLOSample {
		snap := h.Snapshot()
		var s SLOSample
		for i, c := range snap.Counts {
			if i < len(snap.Bounds) && snap.Bounds[i] <= t {
				s.Good += c
			} else {
				s.Bad += c
			}
		}
		return s
	}
}

// CounterSLOSource builds a source from good/bad counter handles (either
// may be nil — a missing class simply counts zero).
func CounterSLOSource(good, bad func() int64) SLOSource {
	return func() SLOSample {
		var s SLOSample
		if good != nil {
			s.Good = good()
		}
		if bad != nil {
			s.Bad = bad()
		}
		return s
	}
}

// SLOWindow is one evaluation window's burn state.
type SLOWindow struct {
	// WindowSeconds is the configured lookback; EffectiveSeconds is what
	// the history actually covered (shorter early in the process life).
	WindowSeconds    float64 `json:"window_seconds"`
	EffectiveSeconds float64 `json:"effective_seconds"`
	// Requests and Bad are the deltas over the window.
	Requests int64 `json:"requests"`
	Bad      int64 `json:"bad"`
	// BadRate is Bad/Requests; BurnRate is BadRate over the objective's
	// error budget (1.0 = spending the budget exactly at the sustainable
	// rate).
	BadRate  float64 `json:"bad_rate"`
	BurnRate float64 `json:"burn_rate"`
}

// SLOStatus is one objective's evaluated state.
type SLOStatus struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "latency" or "availability"
	// Objective description: for latency, "p99 <= 0.005s" becomes
	// Quantile 0.99 + ThresholdSeconds 0.005; for availability, Target
	// holds the success-ratio floor (e.g. 0.999).
	Quantile         float64 `json:"quantile,omitempty"`
	ThresholdSeconds float64 `json:"threshold_seconds,omitempty"`
	Target           float64 `json:"target,omitempty"`
	// Budget is the allowed bad fraction (1-Quantile or 1-Target).
	Budget float64 `json:"budget"`
	// Requests/Bad/Achieved cover everything since tracking started.
	// Achieved is the overall good ratio — for latency, the fraction of
	// requests at or under the threshold (meeting the objective means
	// Achieved >= Quantile); for availability, the success ratio.
	Requests int64   `json:"requests"`
	Bad      int64   `json:"bad"`
	Achieved float64 `json:"achieved"`
	// BudgetUsed is the fraction of the total error budget consumed
	// (Bad / (Budget × Requests); >1 means the objective is violated).
	BudgetUsed float64 `json:"budget_used"`
	// Violated reports Achieved below the objective over the whole run.
	Violated bool `json:"violated"`
	// Windows are the burn-rate windows (sloWindows), shortest first.
	Windows []SLOWindow `json:"windows"`
	// Burning reports every window burning above the alert rate — the
	// multi-window condition that suppresses blips (short window) and
	// stale alerts (long window).
	Burning bool `json:"burning"`
}

// sloObjective is one configured objective plus its sample history.
type sloObjective struct {
	name      string
	kind      string
	quantile  float64
	threshold float64
	target    float64
	budget    float64
	source    SLOSource
	history   []sloPoint // ascending time, pruned past the longest window
}

type sloPoint struct {
	at     time.Time
	sample SLOSample
}

// alertBurn is the burn rate above which every window must sit for an
// objective to be Burning: the budget being spent faster than sustainable.
const alertBurn = 1.0

// sloWindows are the burn-rate lookbacks, shortest first: a short window
// that suppresses stale alerts and long ones that suppress blips.
var sloWindows = [...]time.Duration{time.Minute, 5 * time.Minute, 30 * time.Minute}

// SLOConfig configures an SLOTracker.
type SLOConfig struct {
	// Events, when non-nil, receives a warning each time an objective
	// transitions into the burning state (and an info when it recovers).
	Events *EventLog
}

// SLOTracker evaluates configured objectives against their sources. Safe
// for concurrent use; nil-safe throughout.
type SLOTracker struct {
	mu         sync.Mutex
	cfg        SLOConfig
	objectives []*sloObjective
	burning    map[string]bool
	now        func() time.Time // injectable for tests
}

// NewSLOTracker returns a tracker with no objectives yet.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	return &SLOTracker{cfg: cfg, burning: make(map[string]bool), now: time.Now}
}

// AddLatency registers a latency objective: at least quantile (e.g. 0.99)
// of requests at or under threshold. The source is sampled immediately so
// every window has a baseline from registration time.
func (t *SLOTracker) AddLatency(name string, quantile float64, threshold time.Duration, source SLOSource) {
	t.add(&sloObjective{
		name: name, kind: "latency",
		quantile: quantile, threshold: threshold.Seconds(),
		budget: 1 - quantile, source: source,
	})
}

// AddAvailability registers an availability objective: at least target
// (e.g. 0.999) of requests succeed.
func (t *SLOTracker) AddAvailability(name string, target float64, source SLOSource) {
	t.add(&sloObjective{
		name: name, kind: "availability",
		target: target, budget: 1 - target, source: source,
	})
}

func (t *SLOTracker) add(o *sloObjective) {
	if t == nil || o.source == nil || o.budget <= 0 || o.budget >= 1 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	o.history = append(o.history, sloPoint{at: t.now(), sample: o.source()})
	t.objectives = append(t.objectives, o)
}

// Tick samples every objective's source into its history, prunes history
// beyond the longest window, and emits burn-transition events. Call it on
// a steady cadence (the debugserver plane's clock does) — window
// resolution is the tick interval.
func (t *SLOTracker) Tick() {
	if t == nil {
		return
	}
	t.mu.Lock()
	now := t.now()
	maxW := sloWindows[len(sloWindows)-1]
	for _, o := range t.objectives {
		o.history = append(o.history, sloPoint{at: now, sample: o.source()})
		// Keep one point at or beyond the longest window so deltas always
		// have a baseline covering it.
		cut := 0
		for cut+1 < len(o.history) && now.Sub(o.history[cut+1].at) >= maxW {
			cut++
		}
		o.history = o.history[cut:]
	}
	statuses := t.statusLocked(now)
	events := t.cfg.Events
	type transition struct {
		st  SLOStatus
		was bool
	}
	var trans []transition
	for _, st := range statuses {
		was := t.burning[st.Name]
		if st.Burning != was {
			t.burning[st.Name] = st.Burning
			trans = append(trans, transition{st, was})
		}
	}
	t.mu.Unlock()
	// Event emission outside the lock: the log is its own sync domain.
	for _, tr := range trans {
		if tr.st.Burning {
			events.Warn("slo budget burning",
				A("objective", tr.st.Name), A("kind", tr.st.Kind),
				A("burn", fmt.Sprintf("%.2f", tr.st.Windows[0].BurnRate)),
				A("budget_used", fmt.Sprintf("%.3f", tr.st.BudgetUsed)))
		} else {
			events.Info("slo burn recovered",
				A("objective", tr.st.Name), A("kind", tr.st.Kind))
		}
	}
}

// Status evaluates every objective now: sources are sampled fresh (so a
// curl sees current traffic even between ticks), windows are differenced
// against the recorded history.
func (t *SLOTracker) Status() []SLOStatus {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.statusLocked(t.now())
}

func (t *SLOTracker) statusLocked(now time.Time) []SLOStatus {
	out := make([]SLOStatus, 0, len(t.objectives))
	for _, o := range t.objectives {
		cur := o.source()
		st := SLOStatus{
			Name: o.name, Kind: o.kind,
			Quantile: o.quantile, ThresholdSeconds: o.threshold,
			Target: o.target, Budget: o.budget,
			Requests: cur.Total(), Bad: cur.Bad,
		}
		if st.Requests > 0 {
			st.Achieved = float64(cur.Good) / float64(st.Requests)
			st.BudgetUsed = float64(cur.Bad) / (o.budget * float64(st.Requests))
			floor := o.quantile
			if o.kind == "availability" {
				floor = o.target
			}
			st.Violated = st.Achieved < floor
		}
		st.Burning = true
		for _, w := range sloWindows {
			win := burnWindow(o, cur, now, w)
			st.Windows = append(st.Windows, win)
			if win.BurnRate <= alertBurn {
				st.Burning = false
			}
		}
		if st.Requests == 0 {
			st.Burning = false
		}
		out = append(out, st)
	}
	return out
}

// burnWindow differences the current sample against the newest history
// point at least w old (falling back to the oldest available — the
// effective window is then shorter and reported as such).
func burnWindow(o *sloObjective, cur SLOSample, now time.Time, w time.Duration) SLOWindow {
	win := SLOWindow{WindowSeconds: w.Seconds()}
	if len(o.history) == 0 {
		return win
	}
	base := o.history[0]
	for _, p := range o.history[1:] {
		if now.Sub(p.at) >= w {
			base = p
		} else {
			break
		}
	}
	win.EffectiveSeconds = now.Sub(base.at).Seconds()
	win.Requests = cur.Total() - base.sample.Total()
	win.Bad = cur.Bad - base.sample.Bad
	if win.Requests > 0 {
		win.BadRate = float64(win.Bad) / float64(win.Requests)
		win.BurnRate = win.BadRate / o.budget
	}
	return win
}

// SLOPath is where MountSLO serves the tracker state.
const SLOPath = "/debug/slo"

// SLODoc is the /debug/slo document.
type SLODoc struct {
	Objectives []SLOStatus `json:"objectives"`
	Burning    bool        `json:"burning"`
}

// MountSLO serves the tracker's evaluated objectives at /debug/slo. The
// source is called per request and may return nil (SLO tracking off →
// 404), so binaries can swap trackers without re-mounting.
func MountSLO(mux *http.ServeMux, source func() *SLOTracker) {
	HandleJSON(mux, SLOPath, func(Params) (any, int, error) {
		t := source()
		if t == nil {
			return nil, http.StatusNotFound, errors.New("slo tracking off")
		}
		doc := SLODoc{Objectives: t.Status()}
		for _, o := range doc.Objectives {
			doc.Burning = doc.Burning || o.Burning
		}
		return doc, 0, nil
	})
}
