package timeseries

import (
	"errors"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// The anomaly watchdog closes the observe→notice loop: a small rule
// engine its owner evaluates after each sample of the sampler's rings. A
// rule that starts firing (the rising edge — a firing rule stays quiet
// until it clears and fires again) increments
// telemetry_anomalies_total{rule} once per finding, and can trigger
// capture-on-anomaly: an on-disk CPU+heap pprof pair taken while the
// anomaly is still live, rate-limited by a cooldown so a flapping rule
// cannot fill the disk.

// Finding is one firing rule evaluation: the ring that tripped the rule
// (one finding per series).
type Finding struct {
	Series string
}

// Rule is one anomaly detector. Eval inspects the sampler's rings and
// returns the currently-firing findings (empty = healthy).
type Rule struct {
	Name string
	Eval func(s *Sampler) []Finding
}

// WatchdogConfig tunes a Watchdog.
type WatchdogConfig struct {
	// Metrics receives telemetry_anomalies_total{rule} and
	// telemetry_anomaly_captures_total (nil drops).
	Metrics *telemetry.Registry
	// CaptureDir, when non-empty, enables capture-on-anomaly: a CPU and
	// a heap profile written there on each captured anomaly.
	CaptureDir string
}

const (
	// captureCooldown is the minimum spacing between captures, across
	// all rules: a flapping rule cannot fill the disk.
	captureCooldown = 5 * time.Minute
	// cpuProfileDuration is how long a capture's CPU profile runs, unless
	// Close cuts it short.
	cpuProfileDuration = time.Second
)

// Watchdog evaluates rules against a sampler. It has no loop of its own:
// its owner (the debugserver plane's clock; a test) calls Evaluate after
// Sample, and Close when done.
type Watchdog struct {
	s     *Sampler
	cfg   WatchdogConfig
	rules []Rule

	mu          sync.Mutex
	firing      map[string]bool // rule name → was firing last tick
	lastCapture time.Time

	closec    chan struct{} // closed by Close: cuts a running CPU profile short
	closeOnce sync.Once
	captures  sync.WaitGroup
}

// NewWatchdog builds a watchdog over s with the given rules.
func NewWatchdog(s *Sampler, cfg WatchdogConfig, rules ...Rule) *Watchdog {
	return &Watchdog{
		s:      s,
		cfg:    cfg,
		rules:  rules,
		firing: make(map[string]bool),
		closec: make(chan struct{}),
	}
}

// Close ends a capture in flight (its CPU profile is cut short, the
// heap profile still written) and returns once it has finished.
func (w *Watchdog) Close() {
	if w == nil {
		return
	}
	w.closeOnce.Do(func() { close(w.closec) })
	w.captures.Wait()
}

// Evaluate runs every rule once.
func (w *Watchdog) Evaluate() {
	if w == nil {
		return
	}
	for _, rule := range w.rules {
		findings := rule.Eval(w.s)
		w.mu.Lock()
		was := w.firing[rule.Name]
		w.firing[rule.Name] = len(findings) > 0
		w.mu.Unlock()
		if len(findings) == 0 || was {
			continue // healthy, or still the same incident
		}
		// Rising edge: one count per finding, one capture per incident
		// (the cooldown arbitrates across rules).
		if reg := w.cfg.Metrics; reg != nil {
			reg.Counter("telemetry_anomalies_total", telemetry.L("rule", rule.Name)).
				Add(int64(len(findings)))
		}
		w.maybeCapture(rule.Name)
	}
}

// maybeCapture starts an async CPU+heap capture unless disabled or
// inside the cooldown — which, outlasting a capture many times over, also
// keeps two from running at once and their file names apart.
func (w *Watchdog) maybeCapture(rule string) {
	if w.cfg.CaptureDir == "" {
		return
	}
	w.mu.Lock()
	now := time.Now()
	if !w.lastCapture.IsZero() && now.Sub(w.lastCapture) < captureCooldown {
		w.mu.Unlock()
		return
	}
	w.lastCapture = now
	w.mu.Unlock()

	w.captures.Add(1)
	go func() {
		defer w.captures.Done()
		// A capture that fails is not counted.
		if err := w.capture(rule, now); err == nil && w.cfg.Metrics != nil {
			w.cfg.Metrics.Counter("telemetry_anomaly_captures_total").Inc()
		}
	}()
}

// capture writes the CPU and heap profile pair into CaptureDir.
func (w *Watchdog) capture(rule string, at time.Time) error {
	if err := os.MkdirAll(w.cfg.CaptureDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(w.cfg.CaptureDir, "anomaly-"+sanitizeRule(rule)+"-"+at.Format("20060102T150405"))
	cf, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	// StartCPUProfile fails when another CPU profile is already running
	// (e.g. a /debug/pprof/profile scrape) — record and move on, the
	// heap profile is still worth taking.
	cpuErr := pprof.StartCPUProfile(cf)
	if cpuErr == nil {
		select {
		case <-time.After(cpuProfileDuration):
		case <-w.closec:
		}
		pprof.StopCPUProfile()
	}
	if err := cf.Close(); err != nil && cpuErr == nil {
		cpuErr = err
	}
	hf, err := os.Create(base + ".heap.pprof")
	if err != nil {
		return errors.Join(cpuErr, err)
	}
	heapErr := pprof.WriteHeapProfile(hf)
	if err := hf.Close(); err != nil && heapErr == nil {
		heapErr = err
	}
	return errors.Join(cpuErr, heapErr)
}

// sanitizeRule makes a rule name filesystem-safe.
func sanitizeRule(rule string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, rule)
}

// ---------------------------------------------------------------------------
// Rule constructors

// familySeries returns the sampled ids belonging to a metric family:
// the bare name or name{...labels}.
func familySeries(s *Sampler, name string) []string {
	var out []string
	for _, id := range s.SeriesNames() {
		if id == name || strings.HasPrefix(id, name+"{") {
			out = append(out, id)
		}
	}
	return out
}

// ClusterRules is the rule set over a cluster master's own series:
// throughput-stall (a worker holding work whose completions stand still for
// window), heartbeat-gap (a worker the health machine has marked suspect or
// dead) and gc-pause-spike (stop-the-world pauses above 5% of wall time over
// window). skymaster installs it, and the observability gate prices it.
func ClusterRules(window time.Duration) []Rule {
	return []Rule{
		PairedStallRule("throughput-stall",
			"rpcmr_worker_tasks_done", "rpcmr_worker_inflight", window, 1),
		// Worker state >= 1 is suspect or dead: the heartbeat gap the
		// health machine already flagged, surfaced as an anomaly too.
		GaugeAboveRule("heartbeat-gap", "rpcmr_worker_state", 1),
		// GC pause rate above 5% of wall time is a collector in trouble.
		RateAboveRule("gc-pause-spike", "process_gc_pause_seconds_total", 0.05, window),
	}
}

// PairedStallRule detects a stalled producer: for every series of the
// progress family (a cumulative count, e.g. per-worker tasks done)
// whose paired active series (same label set under activeName, e.g.
// in-flight tasks) stayed >= minActive across the whole window, fire
// when the progress series made no progress over that window.
//
// This is the throughput-stall detector the acceptance run exercises: a
// worker holding an in-flight task for the whole window while its
// tasks-done count stands still is stalled, and the finding is exactly
// that worker's progress series.
func PairedStallRule(name, progressName, activeName string, window time.Duration, minActive float64) Rule {
	return Rule{Name: name, Eval: func(s *Sampler) []Finding {
		var findings []Finding
		for _, id := range familySeries(s, progressName) {
			_, labels, err := telemetry.ParseSeriesID(id)
			if err != nil {
				continue
			}
			activeID := telemetry.RenderSeriesID(activeName, labels)
			act := s.Window(activeID, window)
			if len(act) < 2 {
				continue
			}
			active := true
			for _, p := range act {
				if p.Value < minActive {
					active = false
					break
				}
			}
			if !active {
				continue
			}
			rate, ok := s.Rate(id, window)
			if !ok || rate > 0 {
				continue
			}
			findings = append(findings, Finding{Series: id})
		}
		return findings
	}}
}

// GaugeAboveRule fires for every series of the family whose latest
// sample is >= threshold — heartbeat gaps (worker state >= suspect) and
// budget pressure (reducer peak >= fraction of the budget) are both
// this shape.
func GaugeAboveRule(name, family string, threshold float64) Rule {
	return Rule{Name: name, Eval: func(s *Sampler) []Finding {
		var findings []Finding
		for _, id := range familySeries(s, family) {
			last, ok := s.Last(id)
			if !ok || last.Value < threshold {
				continue
			}
			findings = append(findings, Finding{Series: id})
		}
		return findings
	}}
}

// RateAboveRule fires for every series of the family whose windowed
// rate exceeds perSecond — the GC-pause-spike shape: the rate of
// process_gc_pause_seconds_total is the fraction of wall time spent in
// stop-the-world pause.
func RateAboveRule(name, family string, perSecond float64, window time.Duration) Rule {
	return Rule{Name: name, Eval: func(s *Sampler) []Finding {
		var findings []Finding
		for _, id := range familySeries(s, family) {
			rate, ok := s.Rate(id, window)
			if !ok || rate <= perSecond {
				continue
			}
			findings = append(findings, Finding{Series: id})
		}
		return findings
	}}
}
