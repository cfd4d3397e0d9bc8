package timeseries

import (
	"errors"
	"math"
	"net/http"
	"slices"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// Service-level objectives over the rings. An Objective ("p99 of skyline
// reads under 250ms", "99.9% of requests succeed") names the counter
// families that count its bad and its total requests. The Sampler already
// keeps their history, so the objective's state over each burn window is
// the rise of those families across the window, and its Rule fires while
// every window burns: the watchdog's rising edge is the one alert, one
// count of telemetry_anomalies_total{rule="slo:<name>"}.
//
// Burn rate is the bad fraction over the error budget (1-quantile or
// 1-target): 1.0 spends exactly the budget over the objective's life, 10
// spends it ten times too fast. Requiring every window to burn suppresses
// both blips (the long windows) and stale alerts (the short one).

// sloWindows are the burn-rate lookbacks, shortest first.
var sloWindows = [...]time.Duration{time.Minute, 5 * time.Minute, 30 * time.Minute}

// alertBurn is the burn rate above which every window must sit for an
// objective to be burning: the budget spent faster than sustainable.
const alertBurn = 1.0

// RetentionFor is the ring size of a sampler ticking every interval: the
// default, or, with objectives, enough samples that the longest burn window
// stays covered (1801 at 1s).
func RetentionFor(interval time.Duration, objectives []Objective) int {
	if len(objectives) == 0 || interval <= 0 {
		return defaultRetention
	}
	return max(defaultRetention, int(sloWindows[len(sloWindows)-1]/interval)+1)
}

// Selector picks the sampled series of one counter family whose label set
// includes every label of Labels.
type Selector struct {
	Name   string
	Labels []telemetry.Label
}

func (sel Selector) matches(r *ring) bool {
	if r.name != sel.Name {
		return false
	}
	for _, want := range sel.Labels {
		if !slices.Contains(r.labels, want) {
			return false
		}
	}
	return true
}

// Objective is one service-level objective.
type Objective struct {
	Name string
	Kind string // "latency" or "availability"
	// A latency objective holds when at least Quantile of requests take
	// no longer than Threshold; an availability objective when at least
	// Target of requests succeed.
	Quantile  float64
	Threshold time.Duration
	Target    float64
	// Bad and Total select the counters of bad and of all requests.
	Bad, Total Selector
}

// floor is the good fraction the objective promises.
func (o Objective) floor() float64 {
	if o.Kind == "availability" {
		return o.Target
	}
	return o.Quantile
}

// Status evaluates the objective over s as of its latest sample: the
// overall figures are the counters' latest values, and each window is the
// rise from the oldest retained sample inside it to the latest.
func (o Objective) Status(s *Sampler) SLOStatus {
	budget := 1 - o.floor()
	st := SLOStatus{
		Name: o.Name, Kind: o.Kind,
		Quantile: o.Quantile, ThresholdSeconds: o.Threshold.Seconds(),
		Target: o.Target, Budget: budget,
		Windows: make([]SLOWindow, len(sloWindows)),
	}
	for i, w := range sloWindows {
		st.Windows[i].WindowSeconds = w.Seconds()
	}
	if s == nil {
		return st
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.tick == 0 {
		return st
	}
	last := s.tick - 1
	oldest := max(0, s.tick-s.cfg.Retention)
	lastAt := s.times[last%s.cfg.Retention]
	bad, total := s.sumLocked(o.Bad, last), s.sumLocked(o.Total, last)
	st.Requests, st.Bad = int64(total), int64(bad)
	if total > 0 {
		st.Achieved = (total - bad) / total
		st.BudgetUsed = bad / (budget * total)
		st.Violated = st.Achieved < o.floor()
	}
	st.Burning = total > 0
	for i, w := range sloWindows {
		cutoff := lastAt - w.Nanoseconds()
		from := oldest + sort.Search(last-oldest, func(k int) bool {
			return s.times[(oldest+k)%s.cfg.Retention] >= cutoff
		})
		win := &st.Windows[i]
		win.EffectiveSeconds = float64(lastAt-s.times[from%s.cfg.Retention]) / 1e9
		win.Requests = int64(total - s.sumLocked(o.Total, from))
		win.Bad = int64(bad - s.sumLocked(o.Bad, from))
		if win.Requests > 0 {
			win.BadRate = float64(win.Bad) / float64(win.Requests)
			win.BurnRate = win.BadRate / budget
		}
		if win.BurnRate <= alertBurn {
			st.Burning = false
		}
	}
	return st
}

// sumLocked totals, over every ring sel selects, the value sampled at
// tick t (s.mu held). A slot from before its series existed counts zero:
// a counter is created at its first increment.
func (s *Sampler) sumLocked(sel Selector, t int) float64 {
	i := t % s.cfg.Retention
	var sum float64
	for _, r := range s.series {
		if v := r.vals[i]; !math.IsNaN(v) && sel.matches(r) {
			sum += v
		}
	}
	return sum
}

// Rule is the objective's watchdog rule, slo:<name>: one finding, on its
// bad counter, while the objective is burning.
func (o Objective) Rule() Rule {
	series := telemetry.RenderSeriesID(o.Bad.Name, o.Bad.Labels)
	return Rule{Name: "slo:" + o.Name, Eval: func(s *Sampler) []Finding {
		st := o.Status(s)
		if !st.Burning {
			return nil
		}
		return []Finding{{Series: series}}
	}}
}

// SLOWindow is one burn window's state.
type SLOWindow struct {
	// WindowSeconds is the configured lookback; EffectiveSeconds is what
	// the rings actually covered (shorter early in the process life).
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
	// Requests/Bad/Achieved cover everything since the counters started.
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
	// Windows are the burn windows (1m, 5m, 30m), shortest first.
	Windows []SLOWindow `json:"windows"`
	// Burning reports every window burning above the alert rate.
	Burning bool `json:"burning"`
}

// SLOPath is where MountSLO serves the objectives.
const SLOPath = "/debug/slo"

// SLODoc is the /debug/slo document.
type SLODoc struct {
	Objectives []SLOStatus `json:"objectives"`
	Burning    bool        `json:"burning"`
}

// MountSLO serves the objectives, evaluated over s, at /debug/slo. No
// objectives is a 404.
func MountSLO(mux *http.ServeMux, s *Sampler, objectives []Objective) {
	telemetry.HandleJSON(mux, SLOPath, func(telemetry.Params) (any, int, error) {
		if len(objectives) == 0 {
			return nil, http.StatusNotFound, errors.New("no service-level objectives")
		}
		doc := SLODoc{Objectives: make([]SLOStatus, len(objectives))}
		for i, o := range objectives {
			doc.Objectives[i] = o.Status(s)
			doc.Burning = doc.Burning || doc.Objectives[i].Burning
		}
		return doc, 0, nil
	})
}
