package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/skyline"
	"repro/internal/telemetry"
	"repro/internal/telemetry/timeseries"

	"context"
)

func getJSON(t *testing.T, url string, v interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s does not parse: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// queryLogDoc mirrors the /debug/queries and /debug/slowlog JSON shape.
type queryLogDoc struct {
	Totals           telemetry.QueryTotals  `json:"totals"`
	ThresholdSeconds float64                `json:"threshold_seconds"`
	Queries          []telemetry.QueryStats `json:"queries"`
}

// TestExplainReconciliation is the pinned cross-check of the EXPLAIN
// plan against every other counting surface in the system:
//
//   - per-partition candidates equal the boot flight record's local
//     skyline sizes (nothing was published since boot),
//   - per-partition dominance tests sum exactly to the plan total,
//   - the plan total equals the delta of skyline_dominance_tests_total
//     on /metrics across the explained request,
//   - the per-query record filed in /debug/queries carries the same
//     totals, and
//   - the explained service list equals the cached /skyline answer.
func TestExplainReconciliation(t *testing.T) {
	rec := telemetry.NewRecorder("boot")
	ctx := telemetry.WithRecorder(context.Background(), rec)
	r, err := New(ctx, seedServices(40), driver.Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	boot := rec.Report()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	var plain []Service
	if code := getJSON(t, srv.URL+"/skyline", &plain); code != http.StatusOK {
		t.Fatalf("/skyline = %d", code)
	}
	before := r.Metrics().Counter("skyline_dominance_tests_total").Value()

	var ex ExplainResponse
	if code := getJSON(t, srv.URL+"/skyline?explain=1", &ex); code != http.StatusOK {
		t.Fatalf("/skyline?explain=1 = %d", code)
	}
	delta := r.Metrics().Counter("skyline_dominance_tests_total").Value() - before

	if ex.Plan == nil {
		t.Fatal("no plan in explain response")
	}
	// Pin 1: plan candidates == flight-recorder local skyline sizes.
	bootLocal := make(map[int]int, len(boot.Partitions))
	var bootTotal int64
	for _, pr := range boot.Partitions {
		bootLocal[pr.Partition] = pr.LocalSkyline
		bootTotal += int64(pr.LocalSkyline)
	}
	for _, pe := range ex.Plan.Partitions {
		if pe.Candidates != bootLocal[pe.Partition] {
			t.Errorf("partition %d: plan candidates %d, flight record %d",
				pe.Partition, pe.Candidates, bootLocal[pe.Partition])
		}
	}
	if ex.Plan.Candidates != bootTotal {
		t.Errorf("plan candidates %d, flight record total %d", ex.Plan.Candidates, bootTotal)
	}

	// Pin 2: per-partition tests sum to the plan total.
	var sum int64
	for _, pe := range ex.Plan.Partitions {
		sum += pe.DominanceTests
	}
	if sum != ex.Plan.DominanceTests || sum == 0 {
		t.Errorf("partition tests sum %d, plan total %d", sum, ex.Plan.DominanceTests)
	}

	// Pin 3: the metrics counter moved by exactly the plan total.
	if delta != ex.Plan.DominanceTests {
		t.Errorf("skyline_dominance_tests_total delta %d, plan total %d", delta, ex.Plan.DominanceTests)
	}

	// Pin 4: the filed query record carries the same totals.
	var qdoc queryLogDoc
	if code := getJSON(t, srv.URL+telemetry.QueriesPath, &qdoc); code != http.StatusOK {
		t.Fatalf("%s = %d", telemetry.QueriesPath, code)
	}
	var merged *telemetry.QueryStats
	for i := range qdoc.Queries {
		if qdoc.Queries[i].Path == "merge" {
			merged = &qdoc.Queries[i]
			break
		}
	}
	if merged == nil {
		t.Fatalf("no merge-path record in %s: %+v", telemetry.QueriesPath, qdoc.Queries)
	}
	if merged.DominanceTests != ex.Plan.DominanceTests ||
		merged.CandidatesScanned != ex.Plan.Candidates ||
		merged.PartitionsProbed != ex.Plan.PartitionsProbed ||
		merged.ResultSize != len(ex.Services) ||
		merged.Status != http.StatusOK {
		t.Errorf("query record diverges from plan: %+v vs %+v", merged, ex.Plan)
	}
	if len(merged.Stages) == 0 {
		t.Error("query record has no stage timings")
	}

	// Pin 5: explain answers the same query as the cached path.
	if len(ex.Services) != len(plain) {
		t.Fatalf("explain services %d, cached %d", len(ex.Services), len(plain))
	}
	for i := range plain {
		if ex.Services[i].Name != plain[i].Name {
			t.Errorf("service %d: explain %q, cached %q", i, ex.Services[i].Name, plain[i].Name)
		}
	}
	if ex.Plan.ResultSize != len(plain) {
		t.Errorf("plan result size %d, skyline %d", ex.Plan.ResultSize, len(plain))
	}
}

// TestDebugEndpoints: /debug/queries and /debug/slowlog serve the
// registry's query log, which flags Slow what the latency objective counts
// bad.
func TestDebugEndpoints(t *testing.T) {
	r := newRegistry(t)
	// A tiny threshold so every query is slow.
	r.ConfigureSLO(SLOOptions{P99Threshold: time.Nanosecond})
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	if _, err := http.Get(srv.URL + "/skyline"); err != nil {
		t.Fatal(err)
	}
	var doc queryLogDoc
	if code := getJSON(t, srv.URL+telemetry.SlowLogPath, &doc); code != http.StatusOK {
		t.Fatalf("%s = %d", telemetry.SlowLogPath, code)
	}
	if len(doc.Queries) != 1 || !doc.Queries[0].Slow || doc.Queries[0].Op != "skyline" {
		t.Errorf("slowlog = %+v", doc.Queries)
	}
	if doc.Totals.Queries != 1 || doc.Totals.SlowQueries != 1 {
		t.Errorf("totals = %+v", doc.Totals)
	}
	if got := r.Metrics().Counter("registry_slow_requests_total", telemetry.L("endpoint", "skyline")).Value(); got != 1 {
		t.Errorf("registry_slow_requests_total{skyline} = %d, want 1", got)
	}
}

// TestLatencyObjectiveCountsExactly: a skyline read is bad exactly when it
// runs longer than the latency objective's threshold. A 30ms read under a
// 50ms threshold falls in the (24.4, 61.0] ms histogram bucket, whose
// bound is over the threshold, and is still good.
func TestLatencyObjectiveCountsExactly(t *testing.T) {
	r := newRegistry(t)
	objectives := r.ConfigureSLO(SLOOptions{P99Threshold: 50 * time.Millisecond})
	if len(objectives) != 1 || objectives[0].Name != "skyline-p99" {
		t.Fatalf("objectives = %+v, want the latency objective alone", objectives)
	}
	s := timeseries.NewSampler(r.Metrics(), timeseries.Config{})
	s.Sample()
	for _, d := range []time.Duration{30 * time.Millisecond, 70 * time.Millisecond} {
		h := r.instrument("skyline", true, func(http.ResponseWriter, *http.Request) { time.Sleep(d) })
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/skyline", nil))
	}
	s.Sample()
	st := objectives[0].Status(s)
	if st.Requests != 2 || st.Bad != 1 {
		t.Errorf("latency objective = %d requests, %d bad; want 2 and 1", st.Requests, st.Bad)
	}
	if w := st.Windows[0]; w.Requests != 2 || w.Bad != 1 {
		t.Errorf("1m window = %+v, want 2 requests, 1 bad", w)
	}
	if tot := r.QueryLog().Totals(); tot.Queries != 2 || tot.SlowQueries != 1 {
		t.Errorf("query log totals = %+v, want the 70ms read alone flagged slow", tot)
	}
}

// TestSoakPublishQuery is the -race soak: concurrent publishes and
// skyline/explain reads, after which (a) the skyline equals the offline
// oracle over all published services, and (b) the per-query dominance
// tests summed across every record reconcile exactly with the global
// skyline_dominance_tests_total counter movement.
func TestSoakPublishQuery(t *testing.T) {
	r := newRegistry(t)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	baseline := r.Metrics().Counter("skyline_dominance_tests_total").Value()

	const writers, readers, rounds = 4, 3, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := Service{
					Name: fmt.Sprintf("soak-%d-%d", w, i),
					QoS:  []float64{float64((w*7+i)%13) + 0.25, float64((i*5+w)%17) + 0.25},
				}
				body, _ := json.Marshal(s)
				resp, err := http.Post(srv.URL+"/services", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Mix the three read paths: explain (merge), constrained
				// (ceiling cache) and plain (cached / fill) — all racing
				// the concurrent publish batches.
				url := srv.URL + "/skyline"
				switch (g + i) % 3 {
				case 0:
					url += "?explain=1"
				case 1:
					url += "?max=30,30"
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()

	// Oracle: the skyline over every published service.
	var all points.Set
	r.mu.RLock()
	for _, s := range r.services {
		all = append(all, points.Point(s.QoS))
	}
	r.mu.RUnlock()
	want := skyline.Naive(all)
	wantKeys := map[string]bool{}
	for _, p := range want {
		wantKeys[points.Key(p)] = true
	}
	got := r.Skyline()
	gotKeys := map[string]bool{}
	for _, s := range got {
		if !wantKeys[points.Key(points.Point(s.QoS))] {
			t.Errorf("%s (%v) not in oracle skyline", s.Name, s.QoS)
		}
		gotKeys[points.Key(points.Point(s.QoS))] = true
	}
	for k := range wantKeys {
		if !gotKeys[k] {
			t.Errorf("oracle skyline point %s missing from registry skyline", k)
		}
	}

	// Reconciliation: cumulative per-query totals == counter movement.
	tot := r.QueryLog().Totals()
	if tot.Queries != int64(writers*rounds+readers*rounds) {
		t.Errorf("tracked queries = %d, want %d", tot.Queries, writers*rounds+readers*rounds)
	}
	delta := r.Metrics().Counter("skyline_dominance_tests_total").Value() - baseline
	if tot.DominanceTests != delta {
		t.Errorf("per-query dominance tests %d, counter delta %d", tot.DominanceTests, delta)
	}
	if tot.DominanceTests == 0 || tot.CandidatesScanned == 0 {
		t.Errorf("soak recorded no work: %+v", tot)
	}
}

// TestEnableQueryStats: with attribution off, no records are filed but
// request counters still move.
func TestEnableQueryStats(t *testing.T) {
	r := newRegistry(t)
	r.EnableQueryStats(false)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	if _, err := http.Get(srv.URL + "/skyline"); err != nil {
		t.Fatal(err)
	}
	if tot := r.QueryLog().Totals(); tot.Queries != 0 {
		t.Errorf("stats-off still filed %d records", tot.Queries)
	}
	if v := r.Metrics().Counter("registry_requests_total",
		telemetry.L("endpoint", "skyline"), telemetry.L("status", "2xx")).Value(); v != 1 {
		t.Errorf("requests counter = %d with stats off, want 1", v)
	}
	r.EnableQueryStats(true)
	if _, err := http.Get(srv.URL + "/skyline"); err != nil {
		t.Fatal(err)
	}
	if tot := r.QueryLog().Totals(); tot.Queries != 1 {
		t.Errorf("stats-on filed %d records, want 1", tot.Queries)
	}
}
