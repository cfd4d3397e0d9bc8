package telemetry

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestParseSeriesIDRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		labels []Label
	}{
		{"plain", nil},
		{"one", []Label{L("k", "v")}},
		{"sorted", []Label{L("a", "1"), L("z", "2")}},
		{"escaped", []Label{L("k", `va"l\ue`+"\nnewline")}},
		{"empty_value", []Label{L("k", "")}},
	}
	for _, tc := range cases {
		id := RenderSeriesID(tc.name, tc.labels)
		name, labels, err := ParseSeriesID(id)
		if err != nil {
			t.Fatalf("%s: ParseSeriesID(%q): %v", tc.name, id, err)
		}
		if name != tc.name {
			t.Errorf("%s: name = %q, want %q", tc.name, name, tc.name)
		}
		if RenderSeriesID(name, labels) != id {
			t.Errorf("%s: round-trip %q → %q", tc.name, id, RenderSeriesID(name, labels))
		}
	}
	for _, bad := range []string{`m{`, `m{k=v}`, `m{k="v}`, `m{k="v"x="y"}`, `m{k="\q"}`} {
		if _, _, err := ParseSeriesID(bad); err == nil {
			t.Errorf("ParseSeriesID(%q): want error", bad)
		}
	}
}

func TestInjectLabelCanonicalAndIdempotent(t *testing.T) {
	// Injection keeps canonical sorted order, so federated ids are
	// comparable with native registry ids.
	id, err := InjectLabel(`m{z="1"}`, "a", "w0")
	if err != nil {
		t.Fatal(err)
	}
	if id != `m{a="w0",z="1"}` {
		t.Errorf("injected id = %q, want sorted labels", id)
	}
	// An existing key is preserved, not overwritten: a master's
	// per-worker series keeps its own attribution.
	id2, err := InjectLabel(`m{worker="w3"}`, "worker", "master")
	if err != nil {
		t.Fatal(err)
	}
	if id2 != `m{worker="w3"}` {
		t.Errorf("existing key overwritten: %q", id2)
	}
}

// TestInjectionRoundTripsThroughExposition is the federation pipeline
// end to end: a registry with awkward escaped label values is written
// as Prometheus text, parsed back (the scrape), re-labeled, and every
// id must parse and carry both the original and the injected label.
func TestInjectionRoundTripsThroughExposition(t *testing.T) {
	reg := NewRegistry()
	awkward := `pa"th\with` + "\n" + `everything`
	reg.Counter("reqs_total", L("path", awkward)).Add(7)
	reg.Gauge("depth").Set(3)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(b.String())
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for id, v := range samples {
		nid, err := InjectLabel(id, "worker", "w0")
		if err != nil {
			t.Fatalf("InjectLabel(%q): %v", id, err)
		}
		name, labels, err := ParseSeriesID(nid)
		if err != nil {
			t.Fatalf("re-parse %q: %v", nid, err)
		}
		got := map[string]string{}
		for _, l := range labels {
			got[l.Key] = l.Value
		}
		if got["worker"] != "w0" {
			t.Errorf("%q: missing injected worker label", nid)
		}
		if name == "reqs_total" {
			found++
			if got["path"] != awkward {
				t.Errorf("escaped label value corrupted: %q", got["path"])
			}
			if v != 7 {
				t.Errorf("value = %g, want 7", v)
			}
		}
	}
	if found != 1 {
		t.Fatalf("reqs_total series found %d times, want 1", found)
	}
}

// metricsServer serves a fixed registry as a scrape target.
func metricsServer(t *testing.T, reg *Registry) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func hostPort(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestFederatorMergesWorkersDeterministically(t *testing.T) {
	w0 := NewRegistry()
	w0.Counter("rpcmr_worker_tasks_total", L("kind", "map")).Add(4)
	w1 := NewRegistry()
	w1.Counter("rpcmr_worker_tasks_total", L("kind", "map")).Add(6)
	s0, s1 := metricsServer(t, w0), metricsServer(t, w1)

	self := NewRegistry()
	self.Counter("rpcmr_tasks_done_total").Add(10)

	f := NewFederator(FederatorConfig{
		Self: self,
		Targets: func() []FederationTarget {
			return []FederationTarget{
				{ID: "w0", Addr: hostPort(t, s0)},
				{ID: "w1", Addr: hostPort(t, s1)},
			}
		},
	})
	f.ScrapeOnce(context.Background())
	snap := f.Snapshot()

	if len(snap.Workers) != 3 { // master + 2 workers
		t.Fatalf("members = %d, want 3", len(snap.Workers))
	}
	// Same family from different workers stays distinct after
	// re-labeling...
	k0 := `rpcmr_worker_tasks_total{kind="map",worker="w0"}`
	k1 := `rpcmr_worker_tasks_total{kind="map",worker="w1"}`
	if snap.Merged[k0] != 4 || snap.Merged[k1] != 6 {
		t.Errorf("merged per-worker series = %g/%g, want 4/6 (merged: %v)",
			snap.Merged[k0], snap.Merged[k1], snap.Merged)
	}
	// ...and the master's own series carries the self id.
	if got := snap.Merged[`rpcmr_tasks_done_total{worker="master"}`]; got != 10 {
		t.Errorf("self series = %g, want 10", got)
	}

	// Determinism: scraping again yields the identical merge.
	f.ScrapeOnce(context.Background())
	snap2 := f.Snapshot()
	if len(snap2.Merged) != len(snap.Merged) {
		t.Fatalf("merge size changed across scrapes: %d vs %d", len(snap.Merged), len(snap2.Merged))
	}
	for k, v := range snap.Merged {
		if snap2.Merged[k] != v {
			t.Errorf("merge not deterministic at %q: %g vs %g", k, v, snap2.Merged[k])
		}
	}
}

func TestFederatorDeadWorkerGoesStaleKeepingLastGood(t *testing.T) {
	wreg := NewRegistry()
	wreg.Counter("rpcmr_worker_tasks_total", L("kind", "map")).Add(5)
	srv := metricsServer(t, wreg)
	addr := hostPort(t, srv)

	events := NewEventLog(32)
	var stale atomic.Bool
	f := NewFederator(FederatorConfig{
		Targets: func() []FederationTarget {
			return []FederationTarget{{ID: "w0", Addr: addr, Stale: stale.Load()}}
		},
		Events: events,
	})
	f.ScrapeOnce(context.Background())
	snap := f.Snapshot()
	if len(snap.Workers) != 1 || snap.Workers[0].Stale {
		t.Fatalf("live worker snapshot = %+v", snap.Workers)
	}
	key := `rpcmr_worker_tasks_total{kind="map",worker="w0"}`
	if snap.Workers[0].Samples[key] != 5 {
		t.Fatalf("scraped sample = %v", snap.Workers[0].Samples)
	}

	// The worker dies: the server goes away and the health machine marks
	// the target stale. The next scrape must not error out — the member
	// keeps its last-good samples, flagged stale.
	srv.Close()
	stale.Store(true)
	f.ScrapeOnce(context.Background())
	snap = f.Snapshot()
	if len(snap.Workers) != 1 {
		t.Fatalf("members after death = %d, want 1", len(snap.Workers))
	}
	if !snap.Workers[0].Stale {
		t.Error("dead worker not marked stale")
	}
	if snap.Workers[0].Samples[key] != 5 {
		t.Errorf("last-good samples lost: %v", snap.Workers[0].Samples)
	}
	if snap.Merged[key] != 5 {
		t.Errorf("stale member missing from merge: %v", snap.Merged)
	}

	// Unreachable-but-not-declared-dead is the same story, plus one
	// scrape-failure event on the rising edge.
	stale.Store(false)
	f.ScrapeOnce(context.Background())
	f.ScrapeOnce(context.Background())
	snap = f.Snapshot()
	if !snap.Workers[0].Stale || snap.Workers[0].Err == "" {
		t.Errorf("unreachable worker: stale=%v err=%q", snap.Workers[0].Stale, snap.Workers[0].Err)
	}
	fails := 0
	for _, ev := range events.Events(0, 0) {
		if ev.Msg == "federation scrape failed" {
			fails++
		}
	}
	if fails != 1 {
		t.Errorf("scrape-failure events = %d, want 1 (edge-detected)", fails)
	}
}

func TestMountClusterServesAndFilters(t *testing.T) {
	wreg := NewRegistry()
	wreg.Counter("rpcmr_worker_tasks_total", L("kind", "map")).Add(2)
	wreg.Gauge("process_goroutines").Set(9)
	srv := metricsServer(t, wreg)

	f := NewFederator(FederatorConfig{
		Targets: func() []FederationTarget {
			return []FederationTarget{{ID: "w0", Addr: hostPort(t, srv)}}
		},
	})
	f.ScrapeOnce(context.Background())

	mux := http.NewServeMux()
	MountCluster(mux, f)
	api := httptest.NewServer(mux)
	defer api.Close()

	var snap ClusterSnapshot
	resp, err := http.Get(api.URL + ClusterPath + "?series=rpcmr_")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Merged) != 1 {
		t.Fatalf("filtered merge = %v, want only the rpcmr_ series", snap.Merged)
	}
	for _, w := range snap.Workers {
		for id := range w.Samples {
			if !strings.HasPrefix(id, "rpcmr_") {
				t.Errorf("unfiltered member sample %q", id)
			}
		}
	}
}
