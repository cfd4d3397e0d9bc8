package timeseries

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock drives the sampler deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) tick(d time.Duration)    { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func bind(s *Sampler, c *fakeClock) *Sampler { s.now = c.now; return s }

func TestSamplerWindowAndWrap(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("g")
	clock := newFakeClock()
	s := bind(NewSampler(reg, Config{Interval: time.Second, Retention: 4}), clock)

	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		s.Sample()
		clock.tick(time.Second)
	}
	if got := s.Samples(); got != 10 {
		t.Fatalf("Samples() = %d, want 10", got)
	}
	pts := s.Window("g", 0)
	if len(pts) != 4 {
		t.Fatalf("retained %d points, want 4 (ring wrapped)", len(pts))
	}
	// Oldest-first: the last 4 of the 10 samples.
	for i, want := range []float64{6, 7, 8, 9} {
		if pts[i].Value != want {
			t.Errorf("pts[%d].Value = %g, want %g", i, pts[i].Value, want)
		}
	}
	if !(pts[0].UnixNano < pts[3].UnixNano) {
		t.Errorf("points not oldest-first: %v", pts)
	}

	// A bounded window trims older samples. The clock now reads 1010s
	// and samples sit at 1006..1009s, so a 2.5s window (cutoff 1007.5)
	// keeps the 1008 and 1009 samples.
	got := s.Window("g", 2500*time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("2.5s window holds %d points, want 2", len(got))
	}
}

func TestSamplerLateSeriesHasNaNHistory(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := reg.Counter("a")
	clock := newFakeClock()
	s := bind(NewSampler(reg, Config{Interval: time.Second, Retention: 8}), clock)

	a.Inc()
	s.Sample()
	clock.tick(time.Second)
	// Series b appears after the first tick: its slot-0 history is NaN
	// and must be skipped, not returned as a zero.
	b := reg.Gauge("b")
	b.Set(42)
	s.Sample()
	if pts := s.Window("b", 0); len(pts) != 1 || pts[0].Value != 42 {
		t.Fatalf("late series window = %v, want exactly [42]", pts)
	}
}

func TestRateClampsCounterResets(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("c") // gauge stands in for a counter that can reset
	clock := newFakeClock()
	s := bind(NewSampler(reg, Config{Interval: time.Second, Retention: 16}), clock)

	// 0 → 10 → 20 → (restart) 2 → 12 over 4 intervals: positive rises are
	// 10+10+10 = 30 over 4s; the reset step contributes zero, not -18.
	for _, v := range []float64{0, 10, 20, 2, 12} {
		g.Set(v)
		s.Sample()
		clock.tick(time.Second)
	}
	rate, ok := s.Rate("c", 0)
	if !ok {
		t.Fatal("Rate not ok")
	}
	if want := 30.0 / 4.0; math.Abs(rate-want) > 1e-9 {
		t.Errorf("rate = %g, want %g (resets clamped)", rate, want)
	}

	// All-decreasing series rates to exactly zero.
	reg2 := telemetry.NewRegistry()
	g2 := reg2.Gauge("d")
	clock2 := newFakeClock()
	s2 := bind(NewSampler(reg2, Config{Interval: time.Second, Retention: 16}), clock2)
	for _, v := range []float64{100, 50, 0} {
		g2.Set(v)
		s2.Sample()
		clock2.tick(time.Second)
	}
	if rate, ok := s2.Rate("d", 0); !ok || rate != 0 {
		t.Errorf("decreasing series rate = %g ok=%v, want 0 true", rate, ok)
	}
}

func TestLast(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("g")
	clock := newFakeClock()
	s := bind(NewSampler(reg, Config{Interval: time.Second, Retention: 16}), clock)
	for _, v := range []float64{5, 1, 9, 3, 7} {
		g.Set(v)
		s.Sample()
		clock.tick(time.Second)
	}
	if last, ok := s.Last("g"); !ok || last.Value != 7 {
		t.Errorf("Last = %v,%v want 7,true", last, ok)
	}
}

func TestHistogramSampledAsCountAndSum(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat", []float64{1, 10}, telemetry.L("op", "read"))
	h.Observe(0.5)
	h.Observe(5)
	s := NewSampler(reg, Config{Retention: 4})
	s.Sample()
	if last, ok := s.Last(`lat_count{op="read"}`); !ok || last.Value != 2 {
		t.Errorf("lat_count = %v,%v want 2,true", last, ok)
	}
	if last, ok := s.Last(`lat_sum{op="read"}`); !ok || last.Value != 5.5 {
		t.Errorf("lat_sum = %v,%v want 5.5,true", last, ok)
	}
}

func TestSamplePathZeroAlloc(t *testing.T) {
	reg := telemetry.NewRegistry()
	for i := 0; i < 10; i++ {
		reg.Counter("ctr", telemetry.L("i", string(rune('a'+i)))).Inc()
	}
	reg.Gauge("g").Set(1)
	s := NewSampler(reg, Config{Retention: 8})
	s.Sample() // warm-up: rings allocate on first sight
	allocs := testing.AllocsPerRun(100, func() { s.Sample() })
	if allocs > 0 {
		t.Errorf("steady-state Sample allocates %.1f objects/op, want 0", allocs)
	}
}

func TestNilSamplerSafe(t *testing.T) {
	var s *Sampler
	s.Sample()
	if pts := s.Window("x", 0); pts != nil {
		t.Errorf("nil Window = %v", pts)
	}
	if _, ok := s.Rate("x", 0); ok {
		t.Error("nil Rate ok")
	}
	if doc := s.Doc(telemetry.Params{}); len(doc.Series) != 0 {
		t.Errorf("nil Doc = %+v", doc)
	}
}

func TestMountServesFilteredJSON(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("rpcmr_tasks_done_total").Add(3)
	reg.Gauge("other").Set(9)
	s := NewSampler(reg, Config{Interval: time.Second, Retention: 8})
	s.Sample()
	s.Sample()

	mux := http.NewServeMux()
	Mount(mux, s)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + Path + "?series=rpcmr_")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc Doc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Samples != 2 {
		t.Errorf("Samples = %d, want 2", doc.Samples)
	}
	if len(doc.Series) != 1 {
		t.Fatalf("filtered series = %v, want only rpcmr_tasks_done_total", doc.Series)
	}
	pts := doc.Series["rpcmr_tasks_done_total"]
	if len(pts) != 2 || pts[1].Value != 3 {
		t.Errorf("points = %v, want two samples of value 3", pts)
	}

	// Bad window parameter is a 400, not a panic.
	resp2, err := http.Get(srv.URL + Path + "?window=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad window status = %d, want 400", resp2.StatusCode)
	}
}
