// Command skymaster runs the distributed skyline master: it listens for
// skyworker connections, then executes the two-job MapReduce skyline
// pipeline over the cluster and prints the skyline.
//
// Usage:
//
//	skymaster [-addr 127.0.0.1:7077] [-method angle|grid|dim|random]
//	          [-partitions 8] [-reducers 4] [-min-workers 1] [-split 1000]
//	          [-liveness 10s] [-linger 0s] [-reducer-budget BYTES]
//	          [-metrics-addr 127.0.0.1:9090] [-trace run.json]
//	          [-flight-out flight.json] [-capture-dir DIR] [-header] input.csv
//
// With -metrics-addr, the master starts the debug plane
// (internal/telemetry/debugserver) on a second listener: /metrics
// (Prometheus text: per-worker retries, lost tasks, stragglers and state
// transitions included), /debug/pprof/, /debug/flightrecorder (the job's
// flight record), /debug/health (worker states, queue depth, phase
// progress), /debug/timeseries (sampled metric history) and
// /debug/critpath — the surface `skytop` renders. The plane's clock
// samples the registry every min(1s, -stall-window/3); after each sample
// an anomaly watchdog checks the history for throughput stalls, heartbeat
// gaps, reducer budget pressure and GC-pause spikes; each anomaly bumps
// telemetry_anomalies_total{rule}, and with -capture-dir the first
// anomaly per five minutes also writes a CPU+heap profile pair there.
// With -trace, the two-job run — including the workers' task spans,
// shipped back over RPC and stitched under one trace — is recorded as
// Chrome trace_event JSON, loadable in chrome://tracing or Perfetto. With
// -flight-out, the flight record is also written to a file. With -linger, the master keeps the debug endpoints up for that
// long after the job finishes (or until SIGINT/SIGTERM) so dashboards
// and CI can inspect the completed run. With -reducer-budget, the
// workers' reducers fold under that many bytes, and when the local
// skylines exceed it the merging job — one map-only cluster job whose
// tasks each lay out a group of the candidates, cut at coordinate-sum
// splitters, and have the rows at or below its sums streamed past it —
// cuts its groups to the budget, so no worker task holds more.
//
// On SIGINT/SIGTERM the master drains workers, takes one final
// time-series sample, shuts the debug server down gracefully, and
// writes a last metrics snapshot to stderr before exiting.
//
// Start workers with: skyworker -master <addr>.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	skymr "repro"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
	"repro/internal/skyjob"
	"repro/internal/telemetry"
	"repro/internal/telemetry/critpath"
	"repro/internal/telemetry/debugserver"
	"repro/internal/telemetry/timeseries"
)

// options bundles the command-line configuration.
type options struct {
	addr        string
	method      string
	path        string
	partitions  int
	reducers    int
	minWorkers  int
	split       int
	header      bool
	timeout     time.Duration
	liveness    time.Duration
	linger      time.Duration
	metricsAddr string
	traceFile   string
	flightFile  string
	budget      int64
	stallWindow time.Duration
	captureDir  string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:7077", "listen address")
	flag.StringVar(&o.method, "method", "angle", "partitioning method: angle, grid, dim, random")
	flag.IntVar(&o.partitions, "partitions", 8, "number of data-space partitions")
	flag.IntVar(&o.reducers, "reducers", 4, "number of reduce tasks for the partitioning job")
	flag.IntVar(&o.minWorkers, "min-workers", 1, "wait for at least this many workers before starting")
	flag.IntVar(&o.split, "split", 0, "records per input message; a map task is a worker's share of them (0 = default 1000)")
	flag.BoolVar(&o.header, "header", false, "input has a header row")
	flag.DurationVar(&o.timeout, "timeout", 10*time.Minute, "overall job timeout")
	flag.DurationVar(&o.liveness, "liveness", 10*time.Second,
		"heartbeat window: a worker silent this long is suspect, 3x this long is dead, and the task it held runs again")
	flag.DurationVar(&o.linger, "linger", 0,
		"keep serving debug endpoints this long after the job (0 = exit immediately)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics and /debug/* on this address (empty = off)")
	flag.StringVar(&o.traceFile, "trace", "", "write a Chrome trace_event JSON of the run to this file (empty = off)")
	flag.StringVar(&o.flightFile, "flight-out", "", "write the flight-recorder JSON report to this file (empty = off)")
	flag.Int64Var(&o.budget, "reducer-budget", 0,
		"per-reducer memory budget in bytes: overflow spills to frames and resolves in extra passes, and local skylines that exceed it merge in one round of budget-sized groups on the workers (0 = unbudgeted, a group a worker)")
	flag.DurationVar(&o.stallWindow, "stall-window", 5*time.Second,
		"a worker holding work with zero completions for this long is a throughput stall; metrics are sampled every min(1s, a third of this)")
	flag.StringVar(&o.captureDir, "capture-dir", "",
		"write a CPU+heap profile pair here on an anomaly, at most once per five minutes (empty = no capture)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: skymaster [flags] input.csv")
		flag.PrintDefaults()
		os.Exit(2)
	}
	o.path = flag.Arg(0)
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "skymaster: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	scheme, err := partition.ParseScheme(o.method)
	if err != nil {
		return err
	}
	f, err := os.Open(o.path)
	if err != nil {
		return err
	}
	data, cols, err := skymr.ReadCSV(f, o.header)
	f.Close()
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("no data rows in %s", o.path)
	}

	// The flight recorder and the tracer are always on: both are small
	// bounded structures, and /debug/flightrecorder and /debug/critpath
	// read from them. (-trace additionally writes the Chrome trace file.)
	recorder := telemetry.NewRecorder(fmt.Sprintf("skyline:%s", scheme))
	tracer := telemetry.NewTracer()

	var metrics *telemetry.Registry
	if o.metricsAddr != "" {
		metrics = telemetry.NewRegistry()
		telemetry.RegisterProcessMetrics(metrics)
	}

	master, err := rpcmr.NewMaster(rpcmr.MasterConfig{
		Addr:           o.addr,
		SplitSize:      o.split,
		LivenessWindow: o.liveness,
		Metrics:        metrics,
	})
	if err != nil {
		return err
	}
	defer master.Close()

	// The debug plane, nil without -metrics-addr. Its clock is derived
	// from the stall window, so the stall rule always sees three samples
	// of a window; the other rules are not window-bound.
	var plane *debugserver.Plane
	if o.metricsAddr != "" {
		rules := timeseries.ClusterRules(o.stallWindow)
		if o.budget > 0 {
			rules = append(rules, timeseries.GaugeAboveRule("reducer-budget",
				"skyline_reducer_peak_bytes", 0.8*float64(o.budget)))
		}
		plane, err = debugserver.Start(o.metricsAddr, debugserver.Sources{
			Metrics:    metrics,
			Recorder:   recorder,
			Tracer:     tracer,
			Health:     func() any { return master.Health() },
			Rules:      rules,
			CaptureDir: o.captureDir,
			Interval:   min(time.Second, o.stallWindow/3),
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "skymaster: metrics on http://%s/metrics, health on /debug/health, history on /debug/timeseries\n",
			plane.Addr())
	}

	// Signal handling: first SIGINT/SIGTERM drains the cluster and aborts
	// the run; the deferred dump below writes the last metrics snapshot.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	signalled := func() bool { return sigCtx.Err() != nil }
	defer func() {
		// Drain returns once the workers parked on the master have their
		// TaskShutdown notice.
		master.Drain()
		if plane == nil {
			return
		}
		// An interrupted run still leaves its last metrics snapshot behind,
		// once the plane is down.
		var dump io.Writer
		if signalled() {
			fmt.Fprintln(os.Stderr, "skymaster: interrupted — dumping metrics")
			dump = os.Stderr
		}
		_ = plane.Close(dump)
	}()

	fmt.Fprintf(os.Stderr, "skymaster: listening on %s, waiting for %d worker(s)...\n",
		master.Addr(), o.minWorkers)
	for master.WorkerCount() < o.minWorkers {
		if signalled() {
			return fmt.Errorf("interrupted while waiting for workers")
		}
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "skymaster: %d worker(s) connected, starting job\n", master.WorkerCount())

	ctx, cancel := context.WithTimeout(sigCtx, o.timeout)
	defer cancel()

	ctx = telemetry.WithTracer(ctx, tracer)
	ctx = telemetry.WithRecorder(ctx, recorder)

	// Progress reporter: one line per second while a job phase runs.
	progressDone := make(chan struct{})
	go func() {
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-progressDone:
				return
			case <-ticker.C:
				st := master.Status()
				if st.JobRunning {
					phase := "map"
					if st.Phase == rpcmr.TaskReduce {
						phase = "reduce"
					}
					fmt.Fprintf(os.Stderr, "skymaster: %s %s phase %d/%d tasks (%d queued, %d live workers)\n",
						st.JobName, phase, st.TasksDone, st.TasksTotal, st.Pending, st.LiveWorkers)
				}
			}
		}
	}()

	start := time.Now()
	spec, err := skyjob.SpecFor(data, scheme, o.partitions)
	if err != nil {
		close(progressDone)
		return err
	}
	if o.budget > 0 {
		spec.ReducerBudgetBytes = o.budget
		spec.Codec = points.FrameAuto
	}
	res, err := skyjob.ComputeSpec(ctx, master, data, spec, o.reducers)
	close(progressDone)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(os.Stderr,
		"skymaster: skyline %d of %d points in %s (partition job map %.2fs/reduce %.2fs, merge map %.2fs)\n",
		len(res.Skyline), len(data), time.Since(start).Round(time.Millisecond),
		st.PartitionJob.Map.Seconds(), st.PartitionJob.Reduce.Seconds(), st.MergeJob.Map.Seconds())
	// The merge is map-only: its rows are output, not shuffle.
	fmt.Fprintf(os.Stderr, "skymaster: %d partitions, %d local skyline points, %d shuffle bytes, %d output bytes, %d dominance tests on the master",
		st.Partitions, st.LocalSkylineTotal(), st.Counters[mapreduce.CounterShuffleBytes],
		st.Counters[mapreduce.CounterOutputBytes], st.DominanceTests)
	if st.MergeRounds > 0 {
		fmt.Fprintf(os.Stderr, ", %d merge round of %d groups (reducer peak %d bytes)", st.MergeRounds, st.MergeGroups, st.ReducerPeakBytes)
	}
	fmt.Fprintln(os.Stderr)
	// Critical-path profile: where the makespan went, and what balance
	// or de-straggling would have bought.
	if analysis, aerr := critpath.Analyze(tracer.Spans(), recorder.Report()); aerr == nil {
		top := analysis.Bottleneck()
		fmt.Fprintf(os.Stderr, "skymaster: critical path %.2fs, bottleneck %s (%.0f%%)",
			analysis.MakespanSeconds, top.Phase, top.Share*100)
		for _, sc := range analysis.WhatIf {
			if sc.Name == "perfect-balance" || sc.Name == "no-straggler" {
				fmt.Fprintf(os.Stderr, ", %s %.2fs (%.2fx)", sc.Name, sc.PredictedSeconds, sc.SpeedupX)
			}
		}
		fmt.Fprintln(os.Stderr)
	}
	if o.traceFile != "" {
		f, err := os.Create(o.traceFile)
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "skymaster: trace written to %s (%d spans) — open in chrome://tracing\n",
			o.traceFile, len(tracer.Spans()))
	}
	if o.flightFile != "" {
		rep, err := json.MarshalIndent(recorder.Report(), "", "  ")
		if err != nil {
			return fmt.Errorf("writing flight record: %w", err)
		}
		if err := os.WriteFile(o.flightFile, append(rep, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing flight record: %w", err)
		}
		fmt.Fprintf(os.Stderr, "skymaster: flight record written to %s\n", o.flightFile)
	}
	if err := skymr.WriteCSV(os.Stdout, res.Skyline, cols); err != nil {
		return err
	}
	if o.linger > 0 && !signalled() {
		// Keep /metrics and /debug/* up for dashboards (skytop) and CI
		// probes; workers stay parked on the master until drained on exit.
		fmt.Fprintf(os.Stderr, "skymaster: job done, serving debug endpoints for %s (SIGTERM to exit now)\n", o.linger)
		select {
		case <-sigCtx.Done():
		case <-time.After(o.linger):
		}
	}
	return nil
}
