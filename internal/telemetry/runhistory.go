package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// Run history: a bounded on-disk JSONL store of per-run summaries
// (flight rollups + critical-path blame), so a regression — this run is
// slower, more skewed, or more straggler-ridden than the runs before it
// — is detected automatically instead of by eyeballing BENCH files.
// One line per run keeps the file greppable and append-cheap; the store
// rewrites itself down to the retention limit when it overgrows.

// RunSummary is one run's flat record. The fields mirror the flight
// recorder's rollups plus the critical-path profiler's blame; keeping
// them flat (no nested analysis types) is what lets the critpath
// package build on telemetry without a dependency cycle.
type RunSummary struct {
	Time time.Time `json:"time"`
	Job  string    `json:"job"`
	// Label carries the run's comparable shape (e.g. "n=4000 d=4 p=8");
	// baselines only form across runs with the same Job and Label.
	Label                    string             `json:"label,omitempty"`
	MakespanSeconds          float64            `json:"makespan_seconds"`
	PhaseSeconds             map[string]float64 `json:"phase_seconds,omitempty"`
	BottleneckPhase          string             `json:"bottleneck_phase,omitempty"`
	BottleneckWorker         string             `json:"bottleneck_worker,omitempty"`
	PredictedBalancedSeconds float64            `json:"predicted_balanced_seconds,omitempty"`
	Imbalance                float64            `json:"imbalance,omitempty"`
	Gini                     float64            `json:"gini,omitempty"`
	Optimality               float64            `json:"optimality,omitempty"`
	Stragglers               int64              `json:"stragglers,omitempty"`
	GlobalSkyline            int                `json:"global_skyline,omitempty"`
}

// Regression flags one metric of the latest run that moved past its
// tolerance against the baseline (the median of prior same-shape runs).
type Regression struct {
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	Ratio    float64 `json:"ratio"`
}

// RunHistory is the bounded store. Safe for concurrent use; a nil
// *RunHistory no-ops on every method, matching the package's other
// off-by-default instruments.
type RunHistory struct {
	mu    sync.Mutex
	path  string // "" = in-memory only
	limit int
	runs  []RunSummary
}

// OpenRunHistory loads (or starts) a history at path, retaining at most
// limit runs (default 200 when limit <= 0). An empty path keeps the
// history in memory only. Unparsable lines in an existing file are
// skipped, not fatal: a truncated tail from a crashed run must not
// brick the next one.
func OpenRunHistory(path string, limit int) (*RunHistory, error) {
	if limit <= 0 {
		limit = 200
	}
	h := &RunHistory{path: path, limit: limit}
	if path == "" {
		return h, nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return h, nil
	}
	if err != nil {
		return nil, fmt.Errorf("run history: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var s RunSummary
		if json.Unmarshal(sc.Bytes(), &s) == nil && !s.Time.IsZero() {
			h.runs = append(h.runs, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("run history: %w", err)
	}
	if len(h.runs) > limit {
		h.runs = append([]RunSummary(nil), h.runs[len(h.runs)-limit:]...)
	}
	return h, nil
}

// Append records one run and persists it. When the on-disk file has
// grown past twice the retention limit it is compacted down to the
// in-memory window.
func (h *RunHistory) Append(s RunSummary) error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.runs = append(h.runs, s)
	overgrown := len(h.runs) > h.limit
	if overgrown {
		h.runs = append([]RunSummary(nil), h.runs[len(h.runs)-h.limit:]...)
	}
	if h.path == "" {
		return nil
	}
	if overgrown {
		return h.rewriteLocked()
	}
	line, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("run history: %w", err)
	}
	f, err := os.OpenFile(h.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("run history: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("run history: %w", err)
	}
	return nil
}

// rewriteLocked compacts the file to the retained window (mu held).
func (h *RunHistory) rewriteLocked() error {
	tmp := h.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("run history: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, s := range h.runs {
		line, err := json.Marshal(s)
		if err != nil {
			f.Close()
			return fmt.Errorf("run history: %w", err)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("run history: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("run history: %w", err)
	}
	return os.Rename(tmp, h.path)
}

// Runs returns a copy of the retained runs, oldest first.
func (h *RunHistory) Runs() []RunSummary {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]RunSummary(nil), h.runs...)
}

// Regression tolerances: a metric regresses when it exceeds the
// baseline by 25% (and by an absolute floor, so microsecond jitter on
// trivial runs doesn't page anyone).
const (
	regressionRatio      = 1.25
	regressionFloorSecs  = 0.05
	regressionFloorUnits = 0.1
)

// CompareLatest judges the most recent run against the median of the
// prior runs with the same Job+Label shape. No baseline (fewer than two
// comparable prior runs) means no verdict: an empty slice.
func (h *RunHistory) CompareLatest() []Regression {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.runs) < 2 {
		return nil
	}
	cur := h.runs[len(h.runs)-1]
	var prior []RunSummary
	for _, r := range h.runs[:len(h.runs)-1] {
		if r.Job == cur.Job && r.Label == cur.Label {
			prior = append(prior, r)
		}
	}
	if len(prior) < 2 {
		return nil
	}
	med := func(get func(RunSummary) float64) float64 {
		vals := make([]float64, len(prior))
		for i, r := range prior {
			vals[i] = get(r)
		}
		sort.Float64s(vals)
		return vals[len(vals)/2]
	}
	var out []Regression
	check := func(metric string, baseline, current, floor float64) {
		if baseline <= 0 || current <= baseline*regressionRatio || current-baseline < floor {
			return
		}
		out = append(out, Regression{Metric: metric, Baseline: baseline, Current: current, Ratio: current / baseline})
	}
	check("makespan_seconds", med(func(r RunSummary) float64 { return r.MakespanSeconds }),
		cur.MakespanSeconds, regressionFloorSecs)
	check("imbalance", med(func(r RunSummary) float64 { return r.Imbalance }),
		cur.Imbalance, regressionFloorUnits)
	check("stragglers", med(func(r RunSummary) float64 { return float64(r.Stragglers) }),
		float64(cur.Stragglers), regressionFloorUnits)
	for _, phase := range []string{"map", "shuffle", "reduce", "coordinate"} {
		check("phase_seconds."+phase, med(func(r RunSummary) float64 { return r.PhaseSeconds[phase] }),
			cur.PhaseSeconds[phase], regressionFloorSecs)
	}
	return out
}

// RunHistoryPath is where MountRunHistory serves the store.
const RunHistoryPath = "/debug/runhistory"

// RunHistoryDoc is the /debug/runhistory document: the retained runs
// plus the latest run's regression verdict.
type RunHistoryDoc struct {
	Runs        []RunSummary `json:"runs"`
	Regressions []Regression `json:"regressions"`
}

// MountRunHistory serves the store at /debug/runhistory. A nil history
// is a 404, matching the package's other mounts.
func MountRunHistory(mux *http.ServeMux, h *RunHistory) {
	HandleJSON(mux, RunHistoryPath, func(Params) (any, int, error) {
		if h == nil {
			return nil, http.StatusNotFound, errors.New("run history not available")
		}
		return RunHistoryDoc{h.Runs(), h.CompareLatest()}, 0, nil
	})
}
