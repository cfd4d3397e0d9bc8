// Package debugserver is the one debug plane every binary starts:
// skymaster, skyworker and skyserve hand Start what they have to show —
// sources, not knobs — and get the same listener, the same /metrics and
// /debug/* endpoints (a path whose source is absent answers 404), one
// clock, and one Close. Nothing else in the repository starts a debug
// listener or a telemetry ticker.
package debugserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/critpath"
	"repro/internal/telemetry/timeseries"
)

// Sources is what a process has to show. Only Metrics is required.
type Sources struct {
	// Metrics is served at /metrics and sampled into /debug/timeseries.
	Metrics *telemetry.Registry
	// Recorder is served at /debug/flightrecorder and, analyzed together
	// with Tracer's spans, at /debug/critpath.
	Recorder *telemetry.Recorder
	Tracer   *telemetry.Tracer
	// Health is called per request for /debug/health.
	Health func() any
	// Rules are the anomaly rules evaluated after every sample; with
	// CaptureDir, an anomaly also writes a CPU+heap profile pair there.
	Rules      []timeseries.Rule
	CaptureDir string
	// Objectives are served at /debug/slo and each evaluated as the rule
	// slo:<name> beside Rules; they size the rings to their longest window.
	Objectives []timeseries.Objective
	// Interval is the period of the plane's clock (default 1s). A caller
	// whose rules look at a window derives it from that window, so the
	// window always spans several samples.
	Interval time.Duration
	// Mux, when set, is the caller's own mux: the plane mounts on it and
	// serves it, application routes included (skyserve). Nil is a new mux.
	Mux *http.ServeMux
}

// shutdownGrace bounds how long Close waits for in-flight requests.
const shutdownGrace = 2 * time.Second

// Plane is a started debug plane.
type Plane struct {
	src      Sources
	sampler  *timeseries.Sampler
	watchdog *timeseries.Watchdog

	srv    *http.Server
	addr   string
	served chan struct{} // closed when srv.Serve has returned

	stop  chan struct{} // closed by Close: ends the clock
	clock sync.WaitGroup
}

// Start mounts every endpoint, starts the clock and — unless addr is
// empty, which leaves a plane that only ticks (benchmarks, or a test
// that serves src.Mux itself) — listens on addr and serves.
//
// The clock is one goroutine that every Interval samples Metrics, then
// evaluates Rules and the Objectives' rules over the fresh sample, in that
// order, so a rule never sees a stale ring and nothing else needs a ticker.
func Start(addr string, src Sources) (*Plane, error) {
	if src.Metrics == nil {
		return nil, errors.New("debugserver: no metrics registry")
	}
	if src.Interval <= 0 {
		src.Interval = time.Second
	}
	if src.Mux == nil {
		src.Mux = http.NewServeMux()
	}
	p := &Plane{src: src, stop: make(chan struct{})}
	p.sampler = timeseries.NewSampler(src.Metrics, timeseries.Config{
		Interval: src.Interval, Retention: timeseries.RetentionFor(src.Interval, src.Objectives),
	})
	rules := append([]timeseries.Rule(nil), src.Rules...)
	for _, o := range src.Objectives {
		rules = append(rules, o.Rule())
	}
	p.watchdog = timeseries.NewWatchdog(p.sampler, timeseries.WatchdogConfig{
		Metrics: src.Metrics, CaptureDir: src.CaptureDir,
	}, rules...)
	p.mount(src.Mux)

	if addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("debugserver: %w", err)
		}
		p.addr = ln.Addr().String()
		p.srv = &http.Server{Handler: src.Mux}
		p.served = make(chan struct{})
		go func() {
			defer close(p.served)
			_ = p.srv.Serve(ln)
		}()
	}

	p.clock.Add(1)
	go func() {
		defer p.clock.Done()
		ticker := time.NewTicker(src.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-ticker.C:
				p.sampler.Sample()
				p.watchdog.Evaluate()
			}
		}
	}()
	return p, nil
}

// mount registers /metrics and every /debug/* path on mux. The mounts
// answer 404 for a nil source, so an absent one needs no branch here.
func (p *Plane) mount(mux *http.ServeMux) {
	src := p.src
	mux.Handle("/metrics", src.Metrics.Handler())
	telemetry.MountPprof(mux)
	telemetry.MountHealth(mux, src.Health)
	telemetry.MountFlightRecorder(mux, func() *telemetry.Recorder { return src.Recorder })
	timeseries.Mount(mux, p.sampler)
	timeseries.MountSLO(mux, p.sampler, src.Objectives)
	critpath.Mount(mux, func() *critpath.Analysis {
		if src.Tracer == nil {
			return nil
		}
		a, err := critpath.Analyze(src.Tracer.Spans(), src.Recorder.Report())
		if err != nil {
			return nil
		}
		return a
	})
}

// Addr is the address the plane listens on, with the port resolved ("" for
// a plane started without one).
func (p *Plane) Addr() string { return p.addr }

// Close stops the plane, in the order its parts depend on each other:
// the clock ends, a capture in flight finishes, one last sample records
// the state the process is leaving in, the server shuts down — in-flight
// requests get shutdownGrace, then their connections are closed — and,
// when dump is non-nil, a final metrics snapshot is written to it.
// Nothing the plane started is running when Close returns.
func (p *Plane) Close(dump io.Writer) error {
	close(p.stop)
	p.clock.Wait()
	p.watchdog.Close()
	p.sampler.Sample()
	if p.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		if p.srv.Shutdown(ctx) != nil {
			_ = p.srv.Close() // the grace ran out: drop the connections still open
		}
		cancel()
		<-p.served
	}
	if dump == nil {
		return nil
	}
	return p.src.Metrics.WritePrometheus(dump)
}
