// Command skyworker runs one distributed skyline worker: it connects to a
// skymaster, pulls map/reduce tasks of the registered skyline jobs, and
// executes them until the master shuts down.
//
// With -metrics-addr the worker starts the same debug plane as the
// master (internal/telemetry/debugserver) — /metrics (Prometheus text,
// the worker's own task counters), /debug/pprof/ and /debug/timeseries
// (metric history, sampled every second); the paths it has no source for
// answer 404. A Prometheus server scrapes each worker's /metrics beside
// the master's.
//
// On SIGINT/SIGTERM the worker stops pulling tasks, takes one final
// time-series sample, shuts the debug server down gracefully, and
// writes a last metrics snapshot to stderr before exiting.
//
// Usage:
//
//	skyworker -master 127.0.0.1:7077 [-id worker-1]
//	          [-metrics-addr 127.0.0.1:0] [-stall 0s]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/rpcmr"
	_ "repro/internal/skyjob" // registers the skyline jobs
	"repro/internal/telemetry"
	"repro/internal/telemetry/debugserver"
)

func main() {
	master := flag.String("master", "127.0.0.1:7077", "master address")
	id := flag.String("id", "", "worker id (default: generated)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics and /debug/* on this address (empty = off)")
	stall := flag.Duration("stall", 0,
		"sleep this long before every task — straggler fault injection (0 = off)")
	flag.Parse()

	var (
		metrics *telemetry.Registry
		plane   *debugserver.Plane
	)
	if *metricsAddr != "" {
		metrics = telemetry.NewRegistry()
		telemetry.RegisterProcessMetrics(metrics)
		var err error
		plane, err = debugserver.Start(*metricsAddr, debugserver.Sources{Metrics: metrics})
		if err != nil {
			fmt.Fprintf(os.Stderr, "skyworker: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "skyworker: metrics on http://%s/metrics, history on /debug/timeseries\n", plane.Addr())
	}

	w, err := rpcmr.NewWorker(rpcmr.WorkerConfig{
		MasterAddr: *master,
		ID:         *id,
		TaskStall:  *stall,
		Metrics:    metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "skyworker: %v\n", err)
		os.Exit(1)
	}
	defer w.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "skyworker: connected to %s\n", *master)
	err = w.Run(ctx)

	// Interrupted: leave the last metrics snapshot behind on the way out,
	// once the plane is down.
	var dump io.Writer
	if ctx.Err() != nil {
		if plane != nil {
			fmt.Fprintln(os.Stderr, "skyworker: interrupted — dumping metrics")
			dump = os.Stderr
		}
	} else if err != nil {
		fmt.Fprintf(os.Stderr, "skyworker: %v\n", err)
		os.Exit(1)
	}
	if plane != nil {
		_ = plane.Close(dump)
	}
	fmt.Fprintf(os.Stderr, "skyworker: done (%d tasks completed)\n", w.Completed())
}
