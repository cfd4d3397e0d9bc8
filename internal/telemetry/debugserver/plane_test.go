package debugserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/partition"
	"repro/internal/qws"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/telemetry/critpath"
	"repro/internal/telemetry/timeseries"
)

// jsonPaths is every path the one handler serves; planePaths of them are
// the plane's own, the rest the registry's handler mounts beside it.
var (
	planePaths = []string{
		telemetry.FlightRecorderPath, telemetry.HealthPath,
		timeseries.Path, timeseries.SLOPath, critpath.Path,
	}
	jsonPaths = append([]string{telemetry.QueriesPath, telemetry.SlowLogPath}, planePaths...)
)

// settleGoroutines fails the test unless the goroutine count returns to
// baseline: what a closed plane, and the connections of the requests made
// to it, must do.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the plane started:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func get(t *testing.T, method, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// decode is the golden decode: the body must fill doc and carry no field
// doc's type does not declare.
func decode(t *testing.T, path string, body []byte, doc any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(doc); err != nil {
		t.Fatalf("%s does not decode into %T: %v\n%s", path, doc, err, body)
	}
}

// TestPlaneServesEveryPath starts a skyserve-shaped plane with every
// source (the registry's API under "/") beside a worker-shaped plane (its
// metrics alone) and reads every path CI curls into the document type its
// endpoint declares; then checks the one method and parameter rule on
// each, the 404s of the worker-shaped plane, the metrics snapshot Close
// dumps, and that Close leaves nothing running.
func TestPlaneServesEveryPath(t *testing.T) {
	recorder, tracer := telemetry.NewRecorder("boot"), telemetry.NewTracer()
	ctx := telemetry.WithTracer(telemetry.WithRecorder(context.Background(), recorder), tracer)
	data := qws.Dataset(7, 400, 3)
	seeds := make([]registry.Service, len(data))
	for i, p := range data {
		seeds[i] = registry.Service{Name: fmt.Sprintf("seed-%d", i), QoS: p}
	}
	reg, err := registry.New(ctx, seeds, driver.Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	baseline := runtime.NumGoroutine() // the registry's publish pipeline is not the plane's

	workerMetrics := telemetry.NewRegistry()
	workerMetrics.Counter("rpcmr_worker_tasks_total").Add(4)
	worker, err := Start("127.0.0.1:0", Sources{Metrics: workerMetrics})
	if err != nil {
		t.Fatal(err)
	}

	objectives := reg.ConfigureSLO(registry.SLOOptions{P99Threshold: 250 * time.Millisecond, Availability: 0.99})
	type health struct {
		Status string `json:"status"`
	}
	mux := http.NewServeMux()
	mux.Handle("/", reg.Handler())
	plane, err := Start("127.0.0.1:0", Sources{
		Metrics:    reg.Metrics(),
		Recorder:   recorder,
		Tracer:     tracer,
		Health:     func() any { return health{"ok"} },
		Rules:      []timeseries.Rule{timeseries.GaugeAboveRule("always", "process_never_registered", 1)},
		Objectives: objectives,
		Interval:   250 * time.Millisecond,
		Mux:        mux,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + plane.Addr()

	if _, err := Start(plane.Addr(), Sources{Metrics: workerMetrics}); err == nil {
		t.Fatal("a second plane started on an address in use")
	}

	// The application's own routes are served by the same listener.
	if code, _ := get(t, http.MethodGet, base+"/skyline"); code != http.StatusOK {
		t.Fatalf("/skyline through the plane's listener = %d", code)
	}
	if code, body := get(t, http.MethodGet, base+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	} else if samples, err := telemetry.ParsePrometheus(string(body)); err != nil || samples[`registry_requests_total{endpoint="skyline",status="2xx"}`] < 1 {
		t.Fatalf("/metrics does not parse (%v) or lacks the request just served:\n%s", err, body)
	}
	if code, _ := get(t, http.MethodGet, base+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}

	// Each path into its document type.
	fetch := func(path string, doc any) {
		t.Helper()
		code, body := get(t, http.MethodGet, base+path)
		if code != http.StatusOK {
			t.Fatalf("%s = %d: %s", path, code, body)
		}
		decode(t, path, body, doc)
	}
	var flight telemetry.Report
	if fetch(telemetry.FlightRecorderPath, &flight); len(flight.Partitions) == 0 {
		t.Errorf("flight record has no partitions: %+v", flight)
	}
	var h health
	if fetch(telemetry.HealthPath, &h); h.Status != "ok" {
		t.Errorf("health = %+v", h)
	}
	var crit critpath.Analysis
	if fetch(critpath.Path, &crit); crit.MakespanSeconds <= 0 || len(crit.CriticalPath) == 0 {
		t.Errorf("critical path of the boot computation = %+v", crit)
	}
	var queries, slow telemetry.QueryLogDoc
	if fetch(telemetry.QueriesPath, &queries); queries.Totals.Queries < 1 || len(queries.Queries) < 1 {
		t.Errorf("query log = %+v, want the /skyline read", queries)
	}
	if fetch(telemetry.SlowLogPath, &slow); len(slow.Queries) < 1 || slow.ThresholdSeconds <= 0 {
		t.Errorf("slow log = %+v, want the /skyline read and the 250ms threshold", slow)
	}
	var slos timeseries.SLODoc
	if fetch(timeseries.SLOPath, &slos); len(slos.Objectives) != 2 {
		t.Errorf("slo = %+v, want two objectives", slos)
	}
	// The clock's product: wait for a second sample.
	var series timeseries.Doc
	deadline := time.Now().Add(5 * time.Second)
	for {
		series = timeseries.Doc{}
		fetch(timeseries.Path+"?series=process_uptime_seconds,registry_requests&window=1m", &series)
		if series.Samples >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no second sample after 5s: %+v", series)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The rings keep the 30-minute burn window: 30m / 250ms + 1 samples.
	if series.IntervalSeconds != 0.25 || series.Retention != 7201 {
		t.Errorf("timeseries doc = interval %v, retention %d", series.IntervalSeconds, series.Retention)
	}
	for id := range series.Series {
		if !strings.HasPrefix(id, "registry_requests") && id != "process_uptime_seconds" {
			t.Errorf("series filter let %q through", id)
		}
	}

	// One rule on every path: GET and HEAD, limit=0 is no cap, a negative
	// or garbage parameter is a 400.
	for _, path := range jsonPaths {
		for query, want := range map[string]int{
			"": http.StatusOK, "?limit=0": http.StatusOK, "?limit=-1": http.StatusBadRequest,
			"?limit=ten": http.StatusBadRequest, "?window=soon": http.StatusBadRequest,
		} {
			if code, _ := get(t, http.MethodHead, base+path+query); code != want {
				t.Errorf("HEAD %s%s = %d, want %d", path, query, code, want)
			}
		}
		if code, _ := get(t, http.MethodPost, base+path); code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, code)
		}
	}

	// A plane with only the required sources: every other path is a 404.
	for _, path := range jsonPaths {
		want := http.StatusNotFound
		if path == timeseries.Path {
			want = http.StatusOK
		}
		if code, _ := get(t, http.MethodGet, "http://"+worker.Addr()+path); code != want {
			t.Errorf("worker-shaped plane: %s = %d, want %d", path, code, want)
		}
	}

	var dump bytes.Buffer
	if err := plane.Close(&dump); err != nil {
		t.Fatal(err)
	}
	if samples, err := telemetry.ParsePrometheus(dump.String()); err != nil || samples[`registry_requests_total{endpoint="skyline",status="2xx"}`] < 1 {
		t.Errorf("dump is not the metrics snapshot (%v):\n%s", err, dump.String())
	}
	if err := worker.Close(nil); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, baseline)
}

// TestCloseTakesFinalSample: a plane whose clock never ticked still
// retains, after Close, the state the process was leaving in — and the
// endpoints without a source are 404 on a plane that is not listening too.
func TestCloseTakesFinalSample(t *testing.T) {
	baseline := runtime.NumGoroutine()
	reg := telemetry.NewRegistry()
	g := reg.Gauge("g")
	mux := http.NewServeMux()
	plane, err := Start("", Sources{Metrics: reg, Interval: time.Hour, Mux: mux})
	if err != nil {
		t.Fatal(err)
	}
	if plane.Addr() != "" {
		t.Errorf("a plane started without an address listens on %q", plane.Addr())
	}
	g.Set(77)
	if err := plane.Close(nil); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, baseline)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, timeseries.Path, nil))
	var doc timeseries.Doc
	decode(t, timeseries.Path, rr.Body.Bytes(), &doc)
	if pts := doc.Series["g"]; doc.Samples != 1 || len(pts) != 1 || pts[0].Value != 77 {
		t.Errorf("after Close: %d samples, g = %v; want the one final sample of 77", doc.Samples, pts)
	}
	for _, path := range planePaths {
		if path == timeseries.Path {
			continue
		}
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if rr.Code != http.StatusNotFound {
			t.Errorf("%s without a source = %d, want 404", path, rr.Code)
		}
	}
}

// TestSLOServedFromObjectives: /debug/slo is the plane's, served from the
// objectives in Sources: 404 with none, and with the registry's two, their
// state over the rings once a sample has seen the traffic.
func TestSLOServedFromObjectives(t *testing.T) {
	reg, err := registry.New(context.Background(), []registry.Service{{Name: "a", QoS: []float64{1, 2}}},
		driver.Options{Scheme: partition.Angular})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	objectives := reg.ConfigureSLO(registry.SLOOptions{P99Threshold: 50 * time.Millisecond, Availability: 0.999})
	for _, objs := range [][]timeseries.Objective{nil, objectives} {
		mux := http.NewServeMux()
		mux.Handle("/", reg.Handler())
		plane, err := Start("", Sources{Metrics: reg.Metrics(), Objectives: objs, Interval: time.Hour, Mux: mux})
		if err != nil {
			t.Fatal(err)
		}
		mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/skyline", nil))
		if err := plane.Close(nil); err != nil { // Close takes the sample
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, timeseries.SLOPath, nil))
		if objs == nil {
			if rr.Code != http.StatusNotFound {
				t.Errorf("%s without objectives = %d, want 404", timeseries.SLOPath, rr.Code)
			}
			continue
		}
		var doc timeseries.SLODoc
		decode(t, timeseries.SLOPath, rr.Body.Bytes(), &doc)
		if len(doc.Objectives) != 2 {
			t.Fatalf("objectives = %+v", doc.Objectives)
		}
		byName := map[string]timeseries.SLOStatus{}
		for _, o := range doc.Objectives {
			byName[o.Name] = o
		}
		if o, ok := byName["availability"]; !ok || o.Requests < 1 || o.Bad != 0 || o.Violated {
			t.Errorf("availability objective wrong: %+v", o)
		}
		if o, ok := byName["skyline-p99"]; !ok || o.Requests < 1 {
			t.Errorf("latency objective wrong: %+v", o)
		}
	}
}

// TestCloseBoundedWithHeldRequest: a request still being served when the
// process is told to stop (skyserve under load) delays Close by the grace
// period and no longer; its connection is then dropped, the metrics
// snapshot is dumped after everything has stopped, and nothing is left
// running.
func TestCloseBoundedWithHeldRequest(t *testing.T) {
	baseline := runtime.NumGoroutine()
	entered := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/hold", func(w http.ResponseWriter, req *http.Request) {
		close(entered)
		<-req.Context().Done()
	})
	metrics := telemetry.NewRegistry()
	objectives := []timeseries.Objective{{
		Name: "availability", Kind: "availability", Target: 0.99,
		Bad:   timeseries.Selector{Name: "requests_total", Labels: []telemetry.Label{telemetry.L("status", "5xx")}},
		Total: timeseries.Selector{Name: "requests_total"},
	}}
	plane, err := Start("127.0.0.1:0", Sources{
		Metrics: metrics, Objectives: objectives, Interval: 100 * time.Millisecond, Mux: mux,
	})
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + plane.Addr() + "/hold")
		if err == nil {
			resp.Body.Close()
		}
		held <- err
	}()
	<-entered
	metrics.Counter("requests_total", telemetry.L("status", "2xx")).Inc()

	var dump bytes.Buffer
	start := time.Now()
	if err := plane.Close(&dump); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < shutdownGrace || took > shutdownGrace+time.Second {
		t.Errorf("Close with a held request took %v, want the %v grace and little more", took, shutdownGrace)
	}
	if err := <-held; err == nil {
		t.Error("the held request completed; its connection should have been dropped")
	}
	if !strings.Contains(dump.String(), `requests_total{status="2xx"} 1`) {
		t.Errorf("dump lacks the metrics snapshot:\n%s", dump.String())
	}
	settleGoroutines(t, baseline)
}
