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

// sloRig is a sampler with an injected clock over one counter family,
// requests_total{class}, that an objective reads as its bad and total
// requests.
type sloRig struct {
	reg       *telemetry.Registry
	good, bad *telemetry.Counter
	clock     *fakeClock
	s         *Sampler
	interval  time.Duration
}

func newSLORig(interval time.Duration, objectives ...Objective) *sloRig {
	reg := telemetry.NewRegistry()
	r := &sloRig{
		reg:      reg,
		good:     reg.Counter("requests_total", telemetry.L("class", "good")),
		bad:      reg.Counter("requests_total", telemetry.L("class", "bad")),
		clock:    newFakeClock(),
		interval: interval,
	}
	r.s = bind(NewSampler(reg, Config{Interval: interval, Retention: RetentionFor(interval, objectives)}), r.clock)
	r.s.Sample() // the baseline every window differences against
	return r
}

// step counts good and bad requests over one interval, then samples.
func (r *sloRig) step(good, bad int64) {
	r.good.Add(good)
	r.bad.Add(bad)
	r.clock.tick(r.interval)
	r.s.Sample()
}

var (
	badRequests = Selector{Name: "requests_total", Labels: []telemetry.Label{telemetry.L("class", "bad")}}
	allRequests = Selector{Name: "requests_total"}
)

func latencyObjective() Objective {
	return Objective{Name: "query-p99", Kind: "latency", Quantile: 0.99, Threshold: 5 * time.Millisecond,
		Bad: badRequests, Total: allRequests}
}

func availabilityObjective(target float64) Objective {
	return Objective{Name: "availability", Kind: "availability", Target: target,
		Bad: badRequests, Total: allRequests}
}

// TestSLOBurnRates: a latency objective's burn rate is the bad fraction
// over the window divided by the budget, the 1m window reacts to recent
// behaviour while the 5m and 30m ones average it out, and the overall
// achieved/violated figures cover everything.
func TestSLOBurnRates(t *testing.T) {
	o := latencyObjective()
	rig := newSLORig(time.Minute, o)

	// 30 minutes of clean traffic: 1000 req/min, all good.
	for i := 0; i < 30; i++ {
		rig.step(1000, 0)
	}
	st := o.Status(rig.s)
	if st.Requests != 30000 || st.Bad != 0 || st.Achieved != 1.0 || st.Violated || st.Burning {
		t.Fatalf("clean period status wrong: %+v", st)
	}

	// One bad minute: 10% of requests slow — a 10x burn against the 1%
	// budget on the 1m window.
	rig.step(900, 100)
	st = o.Status(rig.s)
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
		rig.step(900, 100)
	}
	st = o.Status(rig.s)
	if !st.Burning {
		t.Errorf("not burning after sustained 10x burn: %+v", st.Windows)
	}
	// Overall: 3100 bad of 61000 ≈ 5.1% bad — the p99 objective is
	// violated outright and more than the whole budget is consumed.
	if !st.Violated || st.BudgetUsed <= 1 {
		t.Errorf("overall violation not reported: achieved=%v budgetUsed=%v", st.Achieved, st.BudgetUsed)
	}
}

// getSLO reads /debug/slo off a mux serving objectives over s.
func getSLO(t *testing.T, s *Sampler, objectives ...Objective) (int, SLODoc) {
	t.Helper()
	mux := http.NewServeMux()
	MountSLO(mux, s, objectives)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, SLOPath, nil))
	var doc SLODoc
	if rr.Code == http.StatusOK {
		if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
	}
	return rr.Code, doc
}

// TestSLOBurnIsAnAnomaly: a burn across every window is the watchdog's
// rising edge on the rule slo:<name> — one telemetry_anomalies_total
// count per incident, not per tick, its finding the bad counter. Recovery
// reads burning: false at /debug/slo, and a second burn is a second
// incident.
func TestSLOBurnIsAnAnomaly(t *testing.T) {
	o := availabilityObjective(0.99)
	rig := newSLORig(time.Minute, o)
	w := NewWatchdog(rig.s, WatchdogConfig{Metrics: rig.reg}, o.Rule())
	counted := func() int64 {
		return rig.reg.Counter("telemetry_anomalies_total", telemetry.L("rule", "slo:availability")).Value()
	}

	// Three burning minutes: every window sees the same 20% bad share, a
	// 20x burn.
	for i := 0; i < 3; i++ {
		rig.step(80, 20)
		w.Evaluate()
	}
	if c := counted(); c != 1 {
		t.Fatalf("after a 3-minute burn: counter %d, want 1", c)
	}
	if f := o.Rule().Eval(rig.s); len(f) != 1 || f[0].Series != telemetry.RenderSeriesID(o.Bad.Name, o.Bad.Labels) {
		t.Errorf("findings during the burn = %+v, want the bad counter's series", f)
	}
	if _, doc := getSLO(t, rig.s, o); !doc.Burning || !doc.Objectives[0].Burning {
		t.Errorf("/debug/slo during the burn = %+v", doc)
	}

	// A clean minute takes the 1m window under the alert rate.
	rig.step(100, 0)
	w.Evaluate()
	if _, doc := getSLO(t, rig.s, o); doc.Burning || doc.Objectives[0].Burning {
		t.Errorf("/debug/slo after recovery = %+v, want burning false", doc)
	}

	// Burning again is a second incident.
	rig.step(80, 20)
	w.Evaluate()
	if c := counted(); c != 2 {
		t.Errorf("after a second burn: counter %d, want 2", c)
	}
}

// TestSLOWindowsReadTheRings: each window's requests and bad are the
// delta of the same series over that window in the /debug/timeseries
// document, and at a 1s interval the derived ring size lets the 30m
// window cover the full 1800s.
func TestSLOWindowsReadTheRings(t *testing.T) {
	o := availabilityObjective(0.999)
	rig := newSLORig(time.Second, o)
	if got := RetentionFor(time.Second, []Objective{o}); got != 1801 {
		t.Fatalf("RetentionFor(1s) = %d, want 1801", got)
	}
	if got := RetentionFor(time.Second, nil); got != 300 {
		t.Fatalf("RetentionFor(1s) without objectives = %d, want 300", got)
	}
	for i := 0; i < 2500; i++ {
		rig.step(int64(i%7), int64(i%3))
	}
	mux := http.NewServeMux()
	Mount(mux, rig.s)
	st := o.Status(rig.s)
	for _, win := range st.Windows {
		window := time.Duration(win.WindowSeconds) * time.Second
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, Path+"?series=requests_total&window="+window.String(), nil))
		var doc Doc
		if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		delta := func(id string) int64 {
			pts := doc.Series[id]
			if len(pts) < 2 {
				t.Fatalf("%s over %s: %d points", id, window, len(pts))
			}
			return int64(pts[len(pts)-1].Value - pts[0].Value)
		}
		bad := delta(`requests_total{class="bad"}`)
		if want := bad + delta(`requests_total{class="good"}`); win.Requests != want || win.Bad != bad {
			t.Errorf("%s window = %d requests, %d bad; the rings say %d and %d", window, win.Requests, win.Bad, want, bad)
		}
		if win.EffectiveSeconds != win.WindowSeconds {
			t.Errorf("%s window covers %vs", window, win.EffectiveSeconds)
		}
	}
	// The windows are read in place: evaluating allocates the status's
	// window list and no ring points.
	if allocs := testing.AllocsPerRun(50, func() { o.Status(rig.s) }); allocs > 1 {
		t.Errorf("Status allocates %.0f objects, want at most 1", allocs)
	}
}

// TestSLOEndpoint: /debug/slo serves the evaluated objectives as JSON and
// 404s without objectives.
func TestSLOEndpoint(t *testing.T) {
	o := availabilityObjective(0.999)
	rig := newSLORig(time.Second, o)
	rig.step(99, 1)

	code, doc := getSLO(t, rig.s, o)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(doc.Objectives) != 1 {
		t.Fatalf("objectives = %d, want 1", len(doc.Objectives))
	}
	st := doc.Objectives[0]
	if st.Name != "availability" || st.Requests != 100 || st.Bad != 1 || !st.Violated {
		t.Errorf("objective wrong: %+v", st)
	}
	if len(st.Windows) != 3 {
		t.Errorf("windows = %d, want 3", len(st.Windows))
	}

	if code, _ := getSLO(t, rig.s); code != http.StatusNotFound {
		t.Errorf("no objectives: status = %d, want 404", code)
	}
}
