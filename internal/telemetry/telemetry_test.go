package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", L("code", "200"))
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same series.
	if r.Counter("requests_total", L("code", "200")) != c {
		t.Error("get-or-create returned a different counter")
	}
	// Label order must not matter.
	g := r.Gauge("queue_depth", L("a", "1"), L("b", "2"))
	if r.Gauge("queue_depth", L("b", "2"), L("a", "1")) != g {
		t.Error("label order changed series identity")
	}
	g.Set(7)
	g.Add(-2.5)
	if got := g.Value(); got != 4.5 {
		t.Errorf("gauge = %v, want 4.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", DurationBuckets())
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil metrics must be inert")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.1, 1, 10})
	h.Observe(0.05)  // bucket 0 (≤0.1)
	h.Observe(0.1)   // bucket 0 (le is inclusive)
	h.Observe(0.5)   // bucket 1
	h.ObserveN(5, 3) // bucket 2 ×3
	h.Observe(100)   // overflow
	s := h.Snapshot()
	want := []int64{2, 1, 3, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if math.Abs(s.Sum-(0.05+0.1+0.5+15+100)) > 1e-9 {
		t.Errorf("sum = %v", s.Sum)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("no panic on kind mismatch")
		}
	}()
	r.Gauge("m")
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{10, 100}).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Errorf("gauge = %v, want 8000", got)
	}
	if got := r.Histogram("h", nil).Snapshot().Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestSnapshotAndHooks(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total").Add(2)
	hookRuns := 0
	r.OnScrape(func(r *Registry) {
		hookRuns++
		r.Gauge("sampled").Set(42)
	})
	snap := r.Snapshot()
	if hookRuns != 1 {
		t.Errorf("hook ran %d times", hookRuns)
	}
	if snap.Counters["jobs_total"] != 2 {
		t.Errorf("snapshot counters = %v", snap.Counters)
	}
	if snap.Gauges["sampled"] != 42 {
		t.Errorf("snapshot gauges = %v", snap.Gauges)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", b)
		}
	}
	if len(DurationBuckets()) != 16 {
		t.Errorf("DurationBuckets len = %d", len(DurationBuckets()))
	}
}

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
