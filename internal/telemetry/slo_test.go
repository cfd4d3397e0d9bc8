package telemetry

import (
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock advances an SLOTracker deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time                     { return c.t }
func (c *fakeClock) advance(d time.Duration)            { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                          { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func withClock(t *SLOTracker, c *fakeClock) *SLOTracker { t.now = c.now; return t }

// TestSLOBurnRates: a latency objective's burn rate is the bad fraction
// over the window divided by the budget, the 1m window reacts to recent
// behaviour while the 5m and 30m ones average it out, and the overall
// achieved/violated figures cover everything.
func TestSLOBurnRates(t *testing.T) {
	clock := newFakeClock()
	var good, bad atomic.Int64
	tr := withClock(NewSLOTracker(SLOConfig{}), clock)
	tr.AddLatency("query-p99", 0.99, 5*time.Millisecond,
		CounterSLOSource(good.Load, bad.Load))

	// 30 minutes of clean traffic: 1000 req/min, all good.
	for i := 0; i < 30; i++ {
		good.Add(1000)
		clock.advance(time.Minute)
		tr.Tick()
	}
	st := tr.Status()[0]
	if st.Requests != 30000 || st.Bad != 0 || st.Achieved != 1.0 || st.Violated || st.Burning {
		t.Fatalf("clean period status wrong: %+v", st)
	}

	// One bad minute: 10% of requests slow — a 10x burn against the 1%
	// budget on the 1m window.
	good.Add(900)
	bad.Add(100)
	clock.advance(time.Minute)
	tr.Tick()
	st = tr.Status()[0]
	if len(st.Windows) != 3 {
		t.Fatalf("windows = %+v, want 1m, 5m and 30m", st.Windows)
	}
	w1 := st.Windows[0]
	if w1.WindowSeconds != 60 || w1.Requests != 1000 || w1.Bad != 100 {
		t.Fatalf("1m window deltas wrong: %+v", w1)
	}
	// 5m: 100 bad of 5000 → 2% → burn 2; 30m: 100 bad of 30000 → burn 1/3,
	// NOT above the alert rate, so the multi-window condition holds
	// Burning back.
	for i, want := range []float64{10, 2, 1.0 / 3} {
		if got := st.Windows[i].BurnRate; math.Abs(got-want) > 1e-9 {
			t.Errorf("%vs burn = %v, want %v", st.Windows[i].WindowSeconds, got, want)
		}
	}
	if st.Burning {
		t.Error("burning with the 30m window under the alert rate")
	}

	// Sustained badness: after thirty more bad minutes every window burns.
	for i := 0; i < 30; i++ {
		good.Add(900)
		bad.Add(100)
		clock.advance(time.Minute)
		tr.Tick()
	}
	st = tr.Status()[0]
	if !st.Burning {
		t.Errorf("not burning after sustained 10x burn: %+v", st.Windows)
	}
	// Overall: 3100 bad of 61000 ≈ 5.1% bad — the p99 objective is
	// violated outright and more than the whole budget is consumed.
	if !st.Violated || st.BudgetUsed <= 1 {
		t.Errorf("overall violation not reported: achieved=%v budgetUsed=%v", st.Achieved, st.BudgetUsed)
	}
}

// TestSLOBurnEvents: entering the burning state emits one warning, and
// recovery emits one info — transitions, not repeats.
func TestSLOBurnEvents(t *testing.T) {
	clock := newFakeClock()
	events := NewEventLog(64)
	var good, bad atomic.Int64
	tr := withClock(NewSLOTracker(SLOConfig{Events: events}), clock)
	tr.AddAvailability("availability", 0.99, CounterSLOSource(good.Load, bad.Load))

	count := func(msg string) int {
		n := 0
		for _, ev := range events.Events(0, slog.LevelDebug) {
			if ev.Msg == msg {
				n++
			}
		}
		return n
	}
	// Three burning ticks — every window sees the same 20% bad share, a
	// 20x burn: one warning only.
	for i := 0; i < 3; i++ {
		good.Add(80)
		bad.Add(20)
		clock.advance(time.Minute)
		tr.Tick()
	}
	if got := count("slo budget burning"); got != 1 {
		t.Errorf("burning warnings = %d, want 1", got)
	}
	// Recovery: clean minutes push the 1m window clean again.
	for i := 0; i < 3; i++ {
		good.Add(100)
		clock.advance(time.Minute)
		tr.Tick()
	}
	if got := count("slo burn recovered"); got != 1 {
		t.Errorf("recovery infos = %d, want 1", got)
	}
}

// TestLatencySLOSource: bucket-boundary accounting — observations at or
// under the threshold bound are good, the rest (overflow included) bad.
func TestLatencySLOSource(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{0.001, 0.005, 0.025})
	h.Observe(0.0005) // ≤ 1ms: good
	h.Observe(0.004)  // ≤ 5ms: good
	h.Observe(0.010)  // ≤ 25ms bucket, above 5ms threshold: bad
	h.Observe(1.0)    // overflow: bad
	s := LatencySLOSource(h, 5*time.Millisecond)()
	if s.Good != 2 || s.Bad != 2 {
		t.Errorf("sample = %+v, want good=2 bad=2", s)
	}
}

// TestSLOEndpoint: /debug/slo serves evaluated objectives as JSON and
// 404s when tracking is off.
func TestSLOEndpoint(t *testing.T) {
	var good, bad atomic.Int64
	good.Store(99)
	bad.Store(1)
	tr := NewSLOTracker(SLOConfig{})
	tr.AddAvailability("availability", 0.999, CounterSLOSource(good.Load, bad.Load))
	mux := http.NewServeMux()
	MountSLO(mux, func() *SLOTracker { return tr })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + SLOPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var doc struct {
		Objectives []SLOStatus `json:"objectives"`
		Burning    bool        `json:"burning"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Objectives) != 1 {
		t.Fatalf("objectives = %d, want 1", len(doc.Objectives))
	}
	o := doc.Objectives[0]
	if o.Name != "availability" || o.Requests != 100 || o.Bad != 1 || !o.Violated {
		t.Errorf("objective wrong: %+v", o)
	}
	if len(o.Windows) != 3 {
		t.Errorf("windows = %d, want 3", len(o.Windows))
	}

	mux2 := http.NewServeMux()
	MountSLO(mux2, func() *SLOTracker { return nil })
	srv2 := httptest.NewServer(mux2)
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + SLOPath)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("nil tracker status = %d, want 404", resp2.StatusCode)
	}
}
