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
	// Events is served at /debug/events, counted into Metrics as
	// events_total{level}, receives the plane's own anomaly and federation
	// events, and is what Close dumps.
	Events *telemetry.EventLog
	// Recorder is served at /debug/flightrecorder and, analyzed together
	// with Tracer's spans, at /debug/critpath.
	Recorder *telemetry.Recorder
	Tracer   *telemetry.Tracer
	// History is served at /debug/runhistory.
	History *telemetry.RunHistory
	// Health is called per request for /debug/health.
	Health func() any
	// Targets lists the debug servers to federate into /debug/cluster
	// beside Metrics (the master's workers).
	Targets func() []telemetry.FederationTarget
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
	src       Sources
	sampler   *timeseries.Sampler
	watchdog  *timeseries.Watchdog
	federator *telemetry.Federator

	srv    *http.Server
	addr   string
	served chan struct{} // closed when srv.Serve has returned

	cancel context.CancelFunc // stops the loops and a scrape in flight
	loops  sync.WaitGroup
}

// Start mounts every endpoint, starts the clock and — unless addr is
// empty, which leaves a plane that only ticks (benchmarks, or a test
// that serves src.Mux itself) — listens on addr and serves.
//
// The clock is one goroutine that every Interval samples Metrics, then
// evaluates Rules and the Objectives' rules over the fresh sample, in that
// order, so a rule never sees a stale ring and nothing else needs a ticker. The
// federation scrape alone runs beside it, every 2×Interval on a second
// goroutine, because it waits on other processes: a worker that accepts
// the connection and then hangs would otherwise hold back a sample, and
// with it the stall rule, for a whole scrape timeout.
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
	src.Events.BindMetrics(src.Metrics)
	p := &Plane{src: src}
	p.sampler = timeseries.NewSampler(src.Metrics, timeseries.Config{
		Interval: src.Interval, Retention: timeseries.RetentionFor(src.Interval, src.Objectives),
	})
	rules := append([]timeseries.Rule(nil), src.Rules...)
	for _, o := range src.Objectives {
		rules = append(rules, o.Rule())
	}
	p.watchdog = timeseries.NewWatchdog(p.sampler, timeseries.WatchdogConfig{
		Events: src.Events, Metrics: src.Metrics, CaptureDir: src.CaptureDir,
	}, rules...)
	if src.Targets != nil {
		p.federator = telemetry.NewFederator(telemetry.FederatorConfig{
			Self: src.Metrics, Targets: src.Targets, Events: src.Events,
		})
	}
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
			if err := p.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				src.Events.Error("debug server failed", telemetry.A("addr", p.addr), telemetry.A("err", err.Error()))
			}
		}()
	}

	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	p.every(ctx, src.Interval, func() {
		p.sampler.Sample()
		p.watchdog.Evaluate()
	})
	if p.federator != nil {
		p.every(ctx, 2*src.Interval, func() { p.federator.ScrapeOnce(ctx) })
	}
	return p, nil
}

// every runs fn each period until ctx is cancelled.
func (p *Plane) every(ctx context.Context, period time.Duration, fn func()) {
	p.loops.Add(1)
	go func() {
		defer p.loops.Done()
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				fn()
			}
		}
	}()
}

// mount registers /metrics and every /debug/* path on mux. The mounts
// answer 404 for a nil source, so an absent one needs no branch here.
func (p *Plane) mount(mux *http.ServeMux) {
	src := p.src
	mux.Handle("/metrics", src.Metrics.Handler())
	telemetry.MountPprof(mux)
	telemetry.MountEvents(mux, src.Events)
	telemetry.MountHealth(mux, src.Health)
	telemetry.MountFlightRecorder(mux, func() *telemetry.Recorder { return src.Recorder })
	telemetry.MountRunHistory(mux, src.History)
	telemetry.MountCluster(mux, p.federator)
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
// the loops end (a scrape in flight is cancelled), a capture in flight
// finishes, one last sample records the state the process is leaving in,
// the server shuts down — in-flight requests get shutdownGrace, then
// their connections are closed — and, when dump is non-nil, the event log
// and a final metrics snapshot are written to it. Nothing the plane
// started is running when Close returns.
func (p *Plane) Close(dump io.Writer) error {
	p.cancel()
	p.loops.Wait()
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
	return telemetry.DumpOps(dump, p.src.Events, p.src.Metrics)
}
