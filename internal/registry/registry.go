// Package registry is the UDDI-like service registry from the paper's
// motivation (§I–II): providers publish services with QoS attributes,
// clients query the current skyline in real time. Internally it wraps the
// incremental skyline index (driver.Index), so publishing a service
// touches only its partition's local skyline — the paper's dynamic
// scenario — and exposes the whole thing over HTTP with JSON bodies.
//
// Every tracked request (publishes and skyline reads) carries a
// telemetry.QueryStats record through the index, so the registry can
// answer "which query was slow and why" from /debug/queries and
// /debug/slowlog and serve per-query EXPLAIN plans from
// /skyline?explain=1. ConfigureSLO returns its latency and availability
// objectives over its own request counters, for the debug plane to
// evaluate at /debug/slo.
package registry

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/driver"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/telemetry"
	"repro/internal/telemetry/timeseries"
)

// Service is one published web service.
type Service struct {
	// Name identifies the service (unique within the registry).
	Name string `json:"name"`
	// QoS is the attribute vector, oriented so lower is better.
	QoS []float64 `json:"qos"`
}

// Registry holds published services and maintains their skyline
// incrementally. Safe for concurrent use.
//
// Serving core: skyline reads resolve an immutable index epoch (one
// atomic load) and, for repeated queries, a rendered-response cache with
// dominance-aware invalidation — neither takes the write lock, so read
// QPS no longer degrades under publish load. Publishes ride the index's
// batched group-commit pipeline: one installed epoch per coalesced
// batch, with every acknowledged publish visible (and its stale cache
// entries evicted) before the acknowledgement.
type Registry struct {
	mu       sync.RWMutex
	dim      int
	ix       *driver.Index
	services map[string]Service
	// coords indexes services by coordinates, written with services
	// under mu: a read maps its skyline rows back to names through it.
	coords  coordIndex
	cache   *queryCache
	tele    *telemetry.Registry
	queries *telemetry.QueryLog
	// Pre-resolved hot-path counters: resolving a labelled counter takes
	// a registry lookup, too expensive per request at serving rates.
	pathCached, pathMerge, pathUpdate *telemetry.Counter
	cacheHits, cacheMisses            *telemetry.Counter
	// statsOff disables per-query attribution (the ring, the slow log and
	// the context plumbing) while leaving the endpoint counters and
	// latency histograms untouched — the control arm of the serve
	// benchmark's overhead split.
	statsOff atomic.Bool
	// slowAfter is the latency objective's threshold in nanoseconds (0
	// without one): a request running longer counts into
	// registry_slow_requests_total{endpoint}, and the query log flags it
	// Slow.
	slowAfter atomic.Int64
}

// The query log's shape: a ring of the last queryLogCapacity records and the
// slowLogK slowest.
const (
	queryLogCapacity = 256
	slowLogK         = 16
)

// New builds a registry seeded with initial services (at least one is
// required to fit the partitioner; the paper's UDDI bootstrap). When
// opts.Metrics is nil the registry's own telemetry registry is used, so
// boot-time kernel counters (skyline_dominance_tests_total and friends)
// land on the same scrape surface the per-query bridge feeds later.
func New(ctx context.Context, initial []Service, opts driver.Options) (*Registry, error) {
	if len(initial) == 0 {
		return nil, fmt.Errorf("registry: need at least one seed service")
	}
	data := make(points.Set, len(initial))
	services := make(map[string]Service, len(initial))
	coords := newCoordIndex(len(initial))
	dim := len(initial[0].QoS)
	for i, s := range initial {
		if s.Name == "" {
			return nil, fmt.Errorf("registry: seed service %d has no name", i)
		}
		if len(s.QoS) != dim {
			return nil, fmt.Errorf("registry: service %q has %d attributes, want %d", s.Name, len(s.QoS), dim)
		}
		if _, dup := services[s.Name]; dup {
			return nil, fmt.Errorf("registry: duplicate service name %q", s.Name)
		}
		data[i] = points.Point(s.QoS)
		services[s.Name] = s
		coords.add(s)
	}
	tele := telemetry.NewRegistry()
	if opts.Metrics == nil {
		opts.Metrics = tele
	}
	ix, err := driver.BuildIndex(ctx, data, opts)
	if err != nil {
		return nil, err
	}
	r := &Registry{
		dim:         dim,
		ix:          ix,
		services:    services,
		coords:      coords,
		tele:        tele,
		queries:     telemetry.NewQueryLog(queryLogCapacity, slowLogK, 0),
		pathCached:  tele.Counter("registry_query_path_total", telemetry.L("path", "cached")),
		pathMerge:   tele.Counter("registry_query_path_total", telemetry.L("path", "merge")),
		pathUpdate:  tele.Counter("registry_query_path_total", telemetry.L("path", "update")),
		cacheHits:   tele.Counter("registry_cache_hits_total"),
		cacheMisses: tele.Counter("registry_cache_misses_total"),
	}
	r.cache = newQueryCache(defaultCacheCapacity, tele.Counter("registry_cache_evictions_total"))
	// The commit hook runs in epoch order before any publish of the batch
	// is acknowledged: once a Publish returns, every cached answer it
	// could have changed is gone.
	ix.SetOnCommit(r.cache.invalidate)
	telemetry.RegisterProcessMetrics(r.tele)
	// The registry's shape is sampled at scrape time rather than tracked
	// on every publish, so gauges never drift from the index. The index
	// side reads an epoch snapshot — no locks.
	r.tele.OnScrape(func(t *telemetry.Registry) {
		v := r.ix.View()
		r.mu.RLock()
		n := len(r.services)
		r.mu.RUnlock()
		t.Gauge("registry_services").Set(float64(n))
		t.Gauge("registry_skyline_size").Set(float64(len(v.Global())))
		t.Gauge("registry_index_points").Set(float64(v.Size()))
	})
	return r, nil
}

// Close is a no-op: concurrent publishes group-commit on their own
// goroutines, so there is nothing to drain. It stays because the bench
// harness calls it.
func (r *Registry) Close() {}

// Metrics returns the registry's telemetry surface, for embedding into a
// larger exposition or asserting on in tests.
func (r *Registry) Metrics() *telemetry.Registry { return r.tele }

// QueryLog returns the per-query record log behind /debug/queries.
func (r *Registry) QueryLog() *telemetry.QueryLog { return r.queries }

// EnableQueryStats toggles per-query attribution. Disabled, requests
// still hit the endpoint counters and latency histograms but no
// QueryStats record is created or filed — the measured-overhead control.
func (r *Registry) EnableQueryStats(on bool) { r.statsOff.Store(!on) }

// SLOOptions configures the registry's service-level objectives.
type SLOOptions struct {
	// P99Threshold is the skyline read latency the 99th percentile must
	// stay under. Zero disables the latency objective.
	P99Threshold time.Duration
	// Availability is the target fraction of requests answered without a
	// 5xx, e.g. 0.999. Zero disables the availability objective.
	Availability float64
}

// ConfigureSLO sets the registry's objectives over its own request
// counters and returns them for a debug plane to evaluate: the latency
// objective counts a skyline read bad when it runs longer than
// P99Threshold (exactly, into registry_slow_requests_total), and the
// availability objective counts a 5xx bad among all requests. The query
// log is rebuilt to flag the same reads Slow, dropping the records already
// filed; call before serving traffic.
func (r *Registry) ConfigureSLO(opts SLOOptions) []timeseries.Objective {
	var objectives []timeseries.Objective
	if opts.P99Threshold > 0 {
		skyline := []telemetry.Label{telemetry.L("endpoint", "skyline")}
		// The bad counter exists from here on, so its ring starts at zero.
		r.tele.Counter("registry_slow_requests_total", skyline...)
		objectives = append(objectives, timeseries.Objective{
			Name: "skyline-p99", Kind: "latency", Quantile: 0.99, Threshold: opts.P99Threshold,
			Bad:   timeseries.Selector{Name: "registry_slow_requests_total", Labels: skyline},
			Total: timeseries.Selector{Name: "registry_requests_total", Labels: skyline},
		})
	}
	if opts.Availability > 0 && opts.Availability < 1 {
		objectives = append(objectives, timeseries.Objective{
			Name: "availability", Kind: "availability", Target: opts.Availability,
			Bad:   timeseries.Selector{Name: "registry_requests_total", Labels: []telemetry.Label{telemetry.L("status", "5xx")}},
			Total: timeseries.Selector{Name: "registry_requests_total"},
		})
	}
	r.slowAfter.Store(int64(opts.P99Threshold))
	r.mu.Lock()
	r.queries = telemetry.NewQueryLog(queryLogCapacity, slowLogK, opts.P99Threshold)
	r.mu.Unlock()
	return objectives
}

// Dim returns the registry's attribute dimensionality.
func (r *Registry) Dim() int { return r.dim }

// Len returns the number of published services.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.services)
}

// Publish registers a new service and updates the skyline incrementally.
// It reports whether the service entered the skyline.
func (r *Registry) Publish(s Service) (inSkyline bool, err error) {
	return r.PublishContext(context.Background(), s)
}

// PublishContext is Publish with per-query attribution: a query record in
// ctx (telemetry.WithQueryStats) picks up the update path's candidate
// and dominance-test costs from the index.
//
// The catalogue entry is reserved under the lock, but the index fold —
// which may wait on a group commit — runs without it, so publishes never
// block skyline reads. The name goes into the catalogue before the fold
// commits: harmless, because reads surface a service only when its
// coordinates are in the (epoch-snapshotted) skyline.
func (r *Registry) PublishContext(ctx context.Context, s Service) (inSkyline bool, err error) {
	if s.Name == "" {
		return false, fmt.Errorf("registry: service needs a name")
	}
	if len(s.QoS) != r.dim {
		return false, fmt.Errorf("registry: service %q has %d attributes, want %d", s.Name, len(s.QoS), r.dim)
	}
	r.mu.Lock()
	if _, dup := r.services[s.Name]; dup {
		r.mu.Unlock()
		return false, fmt.Errorf("registry: service %q already published", s.Name)
	}
	r.services[s.Name] = s
	r.coords.add(s)
	r.mu.Unlock()

	_, in, err := r.ix.AddContext(ctx, points.Point(s.QoS))
	if err != nil {
		r.mu.Lock()
		delete(r.services, s.Name)
		r.coords.remove(s)
		r.mu.Unlock()
		return false, err
	}
	r.pathUpdate.Inc()
	if in {
		telemetry.QueryStatsFrom(ctx).SetResult(1)
	}
	return in, nil
}

// Skyline returns the names and QoS of the current skyline services,
// sorted by name. Coordinate-equal services all appear.
func (r *Registry) Skyline() []Service {
	return r.SkylineContext(context.Background())
}

// SkylineContext is Skyline with per-query attribution: the serving path
// taken (cached for a cache hit, merge for a fill) and result size are
// noted on a query record in ctx.
func (r *Registry) SkylineContext(ctx context.Context) []Service {
	services, _, _ := r.skylineCached(ctx, "", nil)
	return services
}

// ConstrainedSkylineContext answers a skyline query under a QoS demand
// ceiling: only services with QoS[j] <= max[j] for every attribute
// compete. Over the index's retained working set that is exactly the
// constrained skyline — any dominator of an in-ceiling point has
// componentwise-smaller coordinates, so it is in the ceiling too, which
// is why filtering the maintained global is sound. (Lower bounds are NOT
// sound on the incremental index and are rejected at the API layer: a
// point pruned by a dominator below the floor may be precisely the
// answer inside the window.)
func (r *Registry) ConstrainedSkylineContext(ctx context.Context, max []float64) ([]Service, error) {
	if len(max) != r.dim {
		return nil, fmt.Errorf("registry: constraint has %d attributes, want %d", len(max), r.dim)
	}
	sig := "max:" + fmt.Sprint(max)
	services, _, _ := r.skylineCached(ctx, sig, points.Point(max))
	return services, nil
}

// skylineCached is the common skyline read: serve the rendered response
// from the query cache when present (lock-free hit), else compute it
// from the current epoch snapshot, render it once, and install it at
// that epoch. hit reports which path ran; body is the exact JSON the
// HTTP handler writes.
func (r *Registry) skylineCached(ctx context.Context, sig string, max points.Point) (services []Service, body []byte, hit bool) {
	qs := telemetry.QueryStatsFrom(ctx)
	if e := r.cache.get(sig); e != nil {
		r.pathCached.Inc()
		r.cacheHits.Inc()
		qs.SetPath("cached")
		qs.AddCost(0, int64(len(e.services)), 0)
		qs.SetResult(len(e.services))
		return e.services, e.body, true
	}
	r.pathMerge.Inc()
	r.cacheMisses.Inc()

	start := time.Now()
	v := r.ix.View()
	sky := v.Global()
	var tests int64
	if max != nil {
		filtered := make(points.Set, 0, len(sky))
		for _, p := range sky {
			tests++
			if withinMax(p, max) {
				filtered = append(filtered, p)
			}
		}
		sky = filtered
	}
	snapshot := time.Since(start)

	start = time.Now()
	services = r.matchServices(sky)
	body, err := json.Marshal(services)
	if err == nil {
		body = append(body, '\n')
		r.cache.put(sig, &cacheEntry{epoch: v.Epoch(), max: max, services: services, body: body})
	}
	qs.SetPath("merge")
	qs.AddCost(0, int64(len(v.Global())), tests)
	qs.AddStage("snapshot", snapshot)
	qs.AddStage("match", time.Since(start))
	qs.SetResult(len(services))
	return services, body, false
}

// ExplainContext answers a skyline query the expensive, honest way: it
// bypasses the cached global skyline and re-merges the local skylines
// with the instrumented merge, returning the services plus the
// per-partition plan (candidates, dominance tests, survivors, stage
// timings). The service list is identical to SkylineContext's.
func (r *Registry) ExplainContext(ctx context.Context) ([]Service, *driver.Explain) {
	r.pathMerge.Inc()
	sky, ex := r.ix.Explain(ctx)
	out := r.matchServices(sky)
	telemetry.QueryStatsFrom(ctx).SetResult(len(out))
	return out, ex
}

// matchServices maps skyline points back to the published services that
// carry those coordinates, sorted by name, through the coordinate index:
// it costs the answer, not the catalogue, and holds r.mu only for the
// lookups. Coordinate-equal rows find the same services, so each name is
// kept once.
func (r *Registry) matchServices(sky points.Set) []Service {
	out := make([]Service, 0, len(sky))
	r.mu.RLock()
	for _, p := range sky {
		out = r.coords.appendAt(out, p)
	}
	r.mu.RUnlock()
	if len(out) == 0 {
		return nil // rendered "null", as an empty answer always was
	}
	slices.SortFunc(out, func(a, b Service) int { return strings.Compare(a.Name, b.Name) })
	return slices.CompactFunc(out, func(a, b Service) bool { return a.Name == b.Name })
}

// statsResponse is the /stats JSON shape.
type statsResponse struct {
	Services    int `json:"services"`
	SkylineSize int `json:"skyline_size"`
	IndexPoints int `json:"index_points"`
	Dim         int `json:"dim"`
}

// ExplainResponse is the /skyline?explain=1 JSON shape.
type ExplainResponse struct {
	Services []Service       `json:"services"`
	Plan     *driver.Explain `json:"plan"`
}

// Handler returns the HTTP API:
//
//	POST /services          {"name": ..., "qos": [...]} → {"in_skyline": bool}
//	GET  /skyline           → [{"name": ..., "qos": [...]}, ...]
//	GET  /skyline?explain=1 → {"services": [...], "plan": {...}}
//	GET  /stats             → {"services": n, "skyline_size": k, ...}
//	GET  /metrics           → Prometheus text exposition
//	GET  /dashboard         → HTML status page for operators
//	GET  /debug/queries     → recent per-query cost records + totals
//	GET  /debug/slowlog     → top-K slowest queries
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.tele.Handler())
	telemetry.MountQueryLog(mux, func() *telemetry.QueryLog {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return r.queries
	})
	mux.HandleFunc("/dashboard", r.instrument("dashboard", false, r.serveDashboard))
	mux.HandleFunc("/services", r.instrument("services", true, func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var s Service
		if err := json.NewDecoder(req.Body).Decode(&s); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		in, err := r.PublishContext(req.Context(), s)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, map[string]bool{"in_skyline": in})
	}))
	mux.HandleFunc("/skyline", r.instrument("skyline", true, func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		q := req.URL.Query()
		if q.Get("min") != "" {
			// Lower bounds are unsound on the incremental index: a point
			// pruned by a dominator below the floor may be exactly the
			// constrained answer, but it is no longer retained.
			http.Error(w, "min bounds are not supported: the incremental index retains only "+
				"ceiling-recoverable points; use max=v1,...,vd", http.StatusBadRequest)
			return
		}
		maxParam := q.Get("max")
		if explain, _ := strconv.ParseBool(q.Get("explain")); explain {
			if maxParam != "" {
				http.Error(w, "explain does not support constrained queries", http.StatusBadRequest)
				return
			}
			services, plan := r.ExplainContext(req.Context())
			writeJSON(w, ExplainResponse{Services: services, Plan: plan})
			return
		}
		var maxP points.Point
		sig := ""
		if maxParam != "" {
			p, err := parseBounds(maxParam, r.dim)
			if err != nil {
				http.Error(w, "bad max bounds: "+err.Error(), http.StatusBadRequest)
				return
			}
			maxP = p
			sig = "max:" + maxParam
		}
		// Serve the rendered body directly — on a hit this is the whole
		// request: no locks, no matching, no re-marshalling.
		_, body, _ := r.skylineCached(req.Context(), sig, maxP)
		if body == nil {
			http.Error(w, "encoding failed", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}))
	mux.HandleFunc("/stats", r.instrument("stats", false, func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		v := r.ix.View()
		r.mu.RLock()
		n := len(r.services)
		r.mu.RUnlock()
		writeJSON(w, statsResponse{
			Services:    n,
			SkylineSize: len(v.Global()),
			IndexPoints: v.Size(),
			Dim:         r.dim,
		})
	}))
	return mux
}

// statusWriter captures the response status code so instrument can label
// the request counter by status class and attribute it to the query
// record. An unwritten header counts as 200, matching net/http.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// statusClasses are the requests counter's status labels, indexed by
// statusClass.
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

// statusClass buckets a status code for the requests counter: the index
// into statusClasses.
func statusClass(code int) int {
	switch {
	case code >= 500:
		return 3
	case code >= 400:
		return 2
	case code >= 300:
		return 1
	default:
		return 0
	}
}

// instrument wraps an endpoint with a request counter labelled by
// endpoint and status class, a latency histogram labelled by endpoint and,
// for a request running longer than the latency objective's threshold,
// registry_slow_requests_total{endpoint}. All are recorded after the
// handler runs, so error responses are counted under their real status
// and their latency is observed too.
// When track is set (the query-shaped endpoints: skyline reads and
// publishes), the request additionally carries a telemetry.QueryStats
// record through its context; the index annotates it with path and cost,
// and it is filed into the query log with its dominance tests bridged
// into skyline_dominance_tests_total — the reconciliation surface the
// EXPLAIN tests pin.
func (r *Registry) instrument(endpoint string, track bool, h http.HandlerFunc) http.HandlerFunc {
	seconds := r.tele.Histogram("registry_request_seconds", telemetry.DurationBuckets(),
		telemetry.L("endpoint", endpoint))
	// The request counters are resolved on a class's first request, so the
	// exposition shows only the classes that occurred.
	var requests [len(statusClasses)]atomic.Pointer[telemetry.Counter]
	return func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		var qs *telemetry.QueryStats
		if track && !r.statsOff.Load() {
			qs = telemetry.BeginQuery(endpoint)
			req = req.WithContext(telemetry.WithQueryStats(req.Context(), qs))
		}
		h(sw, req)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		class := statusClass(sw.status)
		c := requests[class].Load()
		if c == nil {
			c = r.tele.Counter("registry_requests_total",
				telemetry.L("endpoint", endpoint), telemetry.L("status", statusClasses[class]))
			requests[class].Store(c)
		}
		c.Inc()
		elapsed := time.Since(start)
		seconds.Observe(elapsed.Seconds())
		if after := r.slowAfter.Load(); after > 0 && int64(elapsed) > after {
			r.tele.Counter("registry_slow_requests_total", telemetry.L("endpoint", endpoint)).Inc()
		}
		if qs != nil {
			qs.SetStatus(sw.status)
			r.mu.RLock()
			log := r.queries
			r.mu.RUnlock()
			log.Record(qs)
			r.tele.Counter("skyline_dominance_tests_total").Add(qs.DominanceTests)
		}
	}
}

// parseBounds parses a comma-separated attribute vector of length dim.
func parseBounds(s string, dim int) (points.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != dim {
		return nil, fmt.Errorf("%d bounds, want %d", len(parts), dim)
	}
	p := make(points.Point, dim)
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bound %d: %w", i, err)
		}
		p[i] = v
	}
	return p, nil
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; the connection will surface it.
		_ = err
	}
}

// Scheme re-exports the partitioning schemes for cmd/skyserve flags.
type Scheme = partition.Scheme
