package telemetry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Federation gives the master one pane of glass over the cluster: a
// Federator scrapes every registered worker's /metrics endpoint (the same Prometheus text format this package writes),
// re-labels each scraped series with the worker's id, and merges the
// result with the master's own registry into a cluster snapshot served
// at /debug/cluster. A worker that stops answering keeps its last-good
// series, flagged stale — consistent with the rpcmr health state
// machine, where a silent worker is suspect before it is dead, and
// "the worker vanished" is itself signal worth displaying.

// FederationTarget is one scrape target, usually a worker's debug
// server.
type FederationTarget struct {
	// ID labels every series scraped from this target (LabelKey=ID).
	ID string
	// Addr is the host:port of the target's debug server. Empty means
	// the target exposes no metrics (registered without -metrics-addr);
	// it appears in the snapshot with no samples.
	Addr string
	// Stale marks a target the caller already believes is gone (e.g.
	// the health machine declared it dead). The federator skips the
	// scrape and keeps last-good samples.
	Stale bool
}

// FederatorConfig is what a Federator federates.
type FederatorConfig struct {
	// Self is the local registry merged into every snapshot as member
	// "master". Nil skips the local contribution.
	Self *Registry
	// Targets enumerates the current scrape targets each cycle —
	// typically Master.DebugTargets, so workers join and leave the
	// federation as they register and die.
	Targets func() []FederationTarget
	// Events receives scrape-failure warnings, once per target outage
	// (nil drops).
	Events *EventLog
}

const (
	selfID          = "master"    // the local registry's member id
	federationLabel = "worker"    // the label injected into every federated series
	scrapeTimeout   = time.Second // bounds each target scrape
)

// WorkerSnapshot is one federation member's contribution to the
// cluster snapshot.
type WorkerSnapshot struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
	// Stale is true when the samples are last-good values from before
	// the target stopped answering (or was declared dead).
	Stale bool `json:"stale"`
	// LastScrape is when the samples were last refreshed (zero = never
	// scraped successfully).
	LastScrape time.Time `json:"last_scrape,omitempty"`
	// Err is the most recent scrape error, cleared on success.
	Err string `json:"err,omitempty"`
	// Samples maps re-labeled series id → value.
	Samples map[string]float64 `json:"samples,omitempty"`
}

// ClusterSnapshot is the /debug/cluster document: every member's
// samples plus the deterministic merge.
type ClusterSnapshot struct {
	Time    time.Time        `json:"time"`
	Workers []WorkerSnapshot `json:"workers"`
	// Merged is the union of every member's samples. Ids colliding
	// across members (possible only for series that already carried the
	// federation label at the source) merge by summation, so the merge
	// is order-independent and deterministic.
	Merged map[string]float64 `json:"merged"`
}

// memberState is the federator's retained per-target state.
type memberState struct {
	addr       string
	stale      bool
	lastScrape time.Time
	err        string // the current outage's scrape error; "" while scrapes succeed
	samples    map[string]float64
}

// Federator owns the retained member states. It has no loop of its own:
// whoever owns it (the debugserver plane) calls ScrapeOnce on a cadence.
type Federator struct {
	cfg FederatorConfig

	mu      sync.Mutex
	members map[string]*memberState
}

// NewFederator builds a federator.
func NewFederator(cfg FederatorConfig) *Federator {
	return &Federator{cfg: cfg, members: make(map[string]*memberState)}
}

// ScrapeOnce scrapes every current target and refreshes member states.
func (f *Federator) ScrapeOnce(ctx context.Context) {
	if f == nil || f.cfg.Targets == nil {
		return
	}
	targets := f.cfg.Targets()
	live := make(map[string]bool, len(targets))
	for _, t := range targets {
		live[t.ID] = true
		f.scrapeTarget(ctx, t)
	}
	// A target that left the Targets set entirely (deregistered, not
	// just dead) keeps its last-good samples but is marked stale — the
	// same "gone but remembered" semantics as a dead worker.
	f.mu.Lock()
	for id, m := range f.members {
		if !live[id] {
			m.stale = true
		}
	}
	f.mu.Unlock()
}

// scrapeTarget refreshes one member.
func (f *Federator) scrapeTarget(ctx context.Context, t FederationTarget) {
	f.mu.Lock()
	m := f.members[t.ID]
	if m == nil {
		m = &memberState{}
		f.members[t.ID] = m
	}
	m.addr = t.Addr
	if t.Stale || t.Addr == "" {
		m.stale = t.Stale
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()

	samples, err := f.scrape(ctx, t.Addr)
	f.mu.Lock()
	if err != nil {
		m.stale = true
		rising := m.err == ""
		m.err = err.Error()
		f.mu.Unlock()
		if rising {
			f.cfg.Events.Warn("federation scrape failed",
				A(federationLabel, t.ID), A("addr", t.Addr), A("err", err.Error()))
		}
		return
	}
	relabeled, relabelErr := f.relabel(samples, t.ID)
	m.samples = relabeled
	m.stale = false
	recovered := m.err != ""
	m.err = ""
	m.lastScrape = time.Now()
	f.mu.Unlock()
	if relabelErr != nil {
		// Unparseable ids were dropped, not fatal — but say so once.
		f.cfg.Events.Warn("federation relabel dropped series",
			A(federationLabel, t.ID), A("err", relabelErr.Error()))
	}
	if recovered {
		f.cfg.Events.Info("federation scrape recovered",
			A(federationLabel, t.ID), A("addr", t.Addr))
	}
}

// scrape fetches and parses one /metrics endpoint.
func (f *Federator) scrape(ctx context.Context, addr string) (map[string]float64, error) {
	url := "http://" + addr + "/metrics"
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	return ParsePrometheus(string(body))
}

// relabel injects worker=id into every sample id, re-rendering in
// canonical sorted order so federated ids are comparable with native
// registry ids. Histogram bucket series (le label) are skipped — the
// cluster snapshot is a scalar view; _count and _sum survive and carry
// the same information for rates.
func (f *Federator) relabel(samples map[string]float64, id string) (map[string]float64, error) {
	out := make(map[string]float64, len(samples))
	var firstErr error
	for sid, v := range samples {
		if strings.Contains(sid, `le="`) {
			continue
		}
		nid, err := InjectLabel(sid, federationLabel, id)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out[nid] += v
	}
	return out, firstErr
}

// Snapshot assembles the current cluster view. The local registry is
// visited live (so the master's own numbers are always fresh); worker
// members contribute their retained samples.
func (f *Federator) Snapshot() ClusterSnapshot {
	snap := ClusterSnapshot{Time: time.Now(), Merged: make(map[string]float64)}
	if f == nil {
		return snap
	}
	if f.cfg.Self != nil {
		self := WorkerSnapshot{
			ID:         selfID,
			LastScrape: snap.Time,
			Samples:    make(map[string]float64),
		}
		f.cfg.Self.VisitSamples(func(sid string, v float64) {
			nid, err := InjectLabel(sid, federationLabel, selfID)
			if err != nil {
				return
			}
			self.Samples[nid] += v
		})
		snap.Workers = append(snap.Workers, self)
	}
	f.mu.Lock()
	ids := make([]string, 0, len(f.members))
	for id := range f.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m := f.members[id]
		ws := WorkerSnapshot{
			ID:         id,
			Addr:       m.addr,
			Stale:      m.stale,
			LastScrape: m.lastScrape,
			Err:        m.err,
		}
		if len(m.samples) > 0 {
			ws.Samples = make(map[string]float64, len(m.samples))
			for k, v := range m.samples {
				ws.Samples[k] = v
			}
		}
		snap.Workers = append(snap.Workers, ws)
	}
	f.mu.Unlock()
	for _, w := range snap.Workers {
		for k, v := range w.Samples {
			snap.Merged[k] += v
		}
	}
	return snap
}

// ClusterPath is where MountCluster serves the snapshot.
const ClusterPath = "/debug/cluster"

// MountCluster serves the federator's cluster snapshot at
// /debug/cluster; ?series=prefix,... filters the merged map and each
// member's samples to matching ids. A nil federator is a 404.
func MountCluster(mux *http.ServeMux, f *Federator) {
	HandleJSON(mux, ClusterPath, func(p Params) (any, int, error) {
		if f == nil {
			return nil, http.StatusNotFound, errors.New("federation off")
		}
		snap := f.Snapshot()
		snap.Merged = filterSamples(snap.Merged, p)
		for i := range snap.Workers {
			snap.Workers[i].Samples = filterSamples(snap.Workers[i].Samples, p)
		}
		return snap, 0, nil
	})
}

// filterSamples keeps the ids that pass the ?series= filter.
func filterSamples(samples map[string]float64, p Params) map[string]float64 {
	if len(p.Series) == 0 || samples == nil {
		return samples
	}
	out := make(map[string]float64)
	for id, v := range samples {
		if p.MatchSeries(id) {
			out[id] = v
		}
	}
	return out
}
