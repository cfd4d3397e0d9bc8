package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("http_requests_total", L("code", "200")).Add(3)
	r.Counter("http_requests_total", L("code", "500")).Add(1)
	r.Gauge("temp").Set(36.6)
	h := r.Histogram("latency_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# TYPE http_requests_total counter",
		`http_requests_total{code="200"} 3`,
		`http_requests_total{code="500"} 1`,
		"# TYPE temp gauge",
		"temp 36.6",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 2`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		"latency_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	// One TYPE line per family, even with several series.
	if strings.Count(text, "# TYPE http_requests_total") != 1 {
		t.Error("duplicate TYPE line for a family")
	}

	samples, err := ParsePrometheus(text)
	if err != nil {
		t.Fatalf("own output does not parse: %v", err)
	}
	if samples[`http_requests_total{code="200"}`] != 3 {
		t.Errorf("parsed samples = %v", samples)
	}
	if math.Abs(samples["latency_seconds_sum"]-5.55) > 1e-9 {
		t.Errorf("histogram sum = %v", samples["latency_seconds_sum"])
	}
}

func TestHandlerAndPprofMount(t *testing.T) {
	r := NewRegistry()
	RegisterProcessMetrics(r)
	r.Counter("ticks_total").Inc()

	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	MountPprof(mux)
	srvMux := httptest.NewServer(mux)
	defer srvMux.Close()

	// pprof index must answer.
	pres, err := srvMux.Client().Get(srvMux.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pres.Body.Close()
	if pres.StatusCode != 200 {
		t.Fatalf("pprof index status %d", pres.StatusCode)
	}

	res, err := srvMux.Client().Get(srvMux.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	samples, err := ParsePrometheus(text)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	if samples["ticks_total"] != 1 {
		t.Errorf("ticks_total = %v", samples["ticks_total"])
	}
	if samples["process_goroutines"] <= 0 {
		t.Errorf("process_goroutines = %v, want > 0", samples["process_goroutines"])
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird", L("path", `a"b\c`)).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `weird{path="a\"b\\c"} 1`) {
		t.Errorf("escaping wrong:\n%s", sb.String())
	}
}

func TestMountHealthHTTP(t *testing.T) {
	mux := http.NewServeMux()
	type health struct {
		Status string `json:"status"`
	}
	var src func() any = func() any { return health{Status: "ok"} }
	MountHealth(mux, func() any { return src() })

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, HealthPath, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var h health
	if err := json.Unmarshal(rr.Body.Bytes(), &h); err != nil || h.Status != "ok" {
		t.Fatalf("body %q, err %v", rr.Body.String(), err)
	}

	src = func() any { return nil }
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, HealthPath, nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("nil health: status %d, want 503", rr.Code)
	}
}
