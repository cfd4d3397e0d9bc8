package timeseries

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// sampleSeries drives a sampler through a scripted value sequence, one
// sample per second of fake time.
func sampleSeries(t *testing.T, series map[string][]float64, n int) *Sampler {
	t.Helper()
	reg := telemetry.NewRegistry()
	gauges := make(map[string]*telemetry.Gauge)
	for id := range series {
		name, labels, err := telemetry.ParseSeriesID(id)
		if err != nil {
			t.Fatalf("bad series id %q: %v", id, err)
		}
		gauges[id] = reg.Gauge(name, labels...)
	}
	clock := newFakeClock()
	s := bind(NewSampler(reg, Config{Interval: time.Second, Retention: n + 1}), clock)
	for i := 0; i < n; i++ {
		for id, vals := range series {
			gauges[id].Set(vals[i])
		}
		s.Sample()
		clock.tick(time.Second)
	}
	return s
}

func TestPairedStallRuleFiresOnlyForStalledWorker(t *testing.T) {
	// w0 progresses; w1 holds a task with zero progress; w2 is idle
	// (inflight 0) with zero progress — only w1 is a stall.
	s := sampleSeries(t, map[string][]float64{
		`rpcmr_worker_tasks_done{worker="w0"}`: {1, 2, 3, 4, 5},
		`rpcmr_worker_inflight{worker="w0"}`:   {1, 1, 1, 1, 1},
		`rpcmr_worker_tasks_done{worker="w1"}`: {3, 3, 3, 3, 3},
		`rpcmr_worker_inflight{worker="w1"}`:   {1, 1, 1, 1, 1},
		`rpcmr_worker_tasks_done{worker="w2"}`: {7, 7, 7, 7, 7},
		`rpcmr_worker_inflight{worker="w2"}`:   {0, 0, 0, 0, 0},
	}, 5)
	rule := PairedStallRule("stall", "rpcmr_worker_tasks_done", "rpcmr_worker_inflight", 10*time.Second, 1)
	findings := rule.Eval(s)
	if len(findings) != 1 {
		t.Fatalf("findings = %+v, want exactly one (w1)", findings)
	}
	if findings[0].Series != `rpcmr_worker_tasks_done{worker="w1"}` {
		t.Errorf("stalled series = %q, want w1", findings[0].Series)
	}
}

func TestGaugeAboveAndRateAboveRules(t *testing.T) {
	s := sampleSeries(t, map[string][]float64{
		`rpcmr_worker_state{worker="w0"}`: {0, 0, 0},
		`rpcmr_worker_state{worker="w1"}`: {0, 1, 2},
		`gc_total`:                        {0, 0.2, 0.4}, // 0.2/s pause rate
	}, 3)

	g := GaugeAboveRule("heartbeat", "rpcmr_worker_state", 1)
	findings := g.Eval(s)
	if len(findings) != 1 || findings[0].Series != `rpcmr_worker_state{worker="w1"}` {
		t.Fatalf("gauge findings = %+v, want only w1", findings)
	}

	r := RateAboveRule("gc", "gc_total", 0.05, 10*time.Second)
	if f := r.Eval(s); len(f) != 1 {
		t.Fatalf("rate findings = %+v, want one", f)
	}
	rQuiet := RateAboveRule("gc", "gc_total", 0.5, 10*time.Second)
	if f := rQuiet.Eval(s); len(f) != 0 {
		t.Fatalf("rate findings above threshold 0.5 = %+v, want none", f)
	}
}

// TestClusterRules: the cluster rule set is its three rules, in order, and
// its heartbeat-gap rule reads the health machine's state gauge.
func TestClusterRules(t *testing.T) {
	rules := ClusterRules(10 * time.Second)
	var names []string
	for _, r := range rules {
		names = append(names, r.Name)
	}
	if want := []string{"throughput-stall", "heartbeat-gap", "gc-pause-spike"}; strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("cluster rules %v, want %v", names, want)
	}
	s := sampleSeries(t, map[string][]float64{`rpcmr_worker_state{worker="w1"}`: {0, 1, 2}}, 3)
	if f := rules[1].Eval(s); len(f) != 1 {
		t.Errorf("heartbeat-gap findings = %+v, want one for w1", f)
	}
}

func TestWatchdogEdgeDetectionAndCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewSampler(reg, Config{Retention: 4})
	firing := true
	rule := Rule{Name: "test-rule", Eval: func(*Sampler) []Finding {
		if firing {
			return []Finding{{Series: "x"}}
		}
		return nil
	}}
	w := NewWatchdog(s, WatchdogConfig{Metrics: reg}, rule)

	// Three firing evaluations = one rising edge = one count.
	w.Evaluate()
	w.Evaluate()
	w.Evaluate()
	count := reg.Counter("telemetry_anomalies_total", telemetry.L("rule", "test-rule")).Value()
	if count != 1 {
		t.Fatalf("anomalies counter = %d after 3 firing evals, want 1", count)
	}

	// Clear, then fire again: a second incident, a second count.
	firing = false
	w.Evaluate()
	firing = true
	w.Evaluate()
	if got := reg.Counter("telemetry_anomalies_total", telemetry.L("rule", "test-rule")).Value(); got != 2 {
		t.Fatalf("anomalies counter after re-fire = %d, want 2", got)
	}
}

func TestWatchdogCaptureWritesProfilesOnceWithinCooldown(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s := NewSampler(reg, Config{Retention: 4})
	firing := true
	rule := Rule{Name: "cap-rule", Eval: func(*Sampler) []Finding {
		if firing {
			return []Finding{{Series: "x"}}
		}
		return nil
	}}
	w := NewWatchdog(s, WatchdogConfig{
		Metrics:    reg,
		CaptureDir: dir,
	}, rule)

	// First incident captures; a cleared-and-refired incident inside the
	// cooldown must not.
	w.Evaluate()
	firing = false
	w.Evaluate()
	firing = true
	w.Evaluate()
	w.Close() // waits for the capture goroutine

	for _, kind := range []string{"cpu", "heap"} {
		files, err := filepath.Glob(filepath.Join(dir, "anomaly-cap-rule-*."+kind+".pprof"))
		if err != nil || len(files) != 1 {
			t.Fatalf("%s profiles in %s = %v (%v), want exactly 1 (cooldown)", kind, dir, files, err)
		}
		if st, err := os.Stat(files[0]); err != nil || st.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", files[0], err)
		}
	}
	if got := reg.Counter("telemetry_anomalies_total", telemetry.L("rule", "cap-rule")).Value(); got != 2 {
		t.Errorf("anomalies counter = %d, want the two rising edges", got)
	}
	// A failed capture is not counted: one count is the one pair, written.
	if got := reg.Counter("telemetry_anomaly_captures_total").Value(); got != 1 {
		t.Errorf("captures counter = %d, want 1", got)
	}
}

func TestWatchdogNoCaptureWithoutDir(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewSampler(reg, Config{Retention: 4})
	rule := Rule{Name: "r", Eval: func(*Sampler) []Finding {
		return []Finding{{Series: "x"}}
	}}
	w := NewWatchdog(s, WatchdogConfig{Metrics: reg}, rule)
	w.Evaluate()
	w.Close()
	if got := reg.Counter("telemetry_anomaly_captures_total").Value(); got != 0 {
		t.Fatalf("captures without dir = %d, want 0", got)
	}
}
