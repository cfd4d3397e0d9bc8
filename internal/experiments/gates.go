package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/driver"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/qws"
	"repro/internal/rpcmr"
	"repro/internal/skyjob"
	"repro/internal/skyline"
	"repro/internal/telemetry"
	"repro/internal/telemetry/critpath"
	"repro/internal/telemetry/debugserver"
	"repro/internal/telemetry/timeseries"
)

// kernels times the flat kernels against the classic points.Set ones —
// the oracle every test compares against — on the two kernel workloads:
// one local skyline over the dataset (the partitioning job's reducer) and
// the merge of 16 per-chunk partial skylines (the merging job's).
// Gated at a 1.5× speedup. End-to-end pipeline numbers are bench/'s.
func kernels(ctx context.Context, sc Scale) ([]Row, error) {
	data := qws.Dataset(sc.Seed, sc.KernelN, 6)
	const chunks = 16
	var partials []points.Set
	for i := 0; i < chunks; i++ {
		partials = append(partials, skyline.FlatBNL(data[i*len(data)/chunks:(i+1)*len(data)/chunks]))
	}
	var r rows
	for _, k := range []struct {
		name          string
		classic, flat func()
	}{
		{"local_skyline", func() { skyline.BNL(data) }, func() { skyline.FlatBNL(data) }},
		{"merge_filter", func() {
			var union points.Set
			for _, p := range partials {
				union = append(union, p...)
			}
			skyline.BNL(union)
		}, func() { skyline.MergeSkylines(ctx, partials, 0) }},
	} {
		// The kernels cannot fail, so neither can best.
		classic, _ := best(sc.Runs, func() error { k.classic(); return nil })
		flat, _ := best(sc.Runs, func() error { k.flat(); return nil })
		r.add(k.name+"/classic_s", classic.Seconds(), "s")
		r.add(k.name+"/flat_s", flat.Seconds(), "s")
		r.gate(sc.Gate, k.name+"/speedup", ratio(float64(classic), float64(flat)), "x", "higher", 1.5)
	}
	return r, nil
}

// critpathGate validates the critical-path profiler's what-if model
// against ground truth: run the two-job pipeline on a 3-worker in-process
// cluster with one worker straggling on every task, take the analyzer's
// "no-straggler" prediction from that run's trace, then re-run
// straggler-free and compare. The prediction must land within 25 % of the
// measured clean median: if the model cannot predict the one intervention
// that can be tested, its rebalance advice is not worth acting on.
//
// Task cost is sleep-simulated (every worker stalls taskService before each
// task, the straggler stragglerStall) on a dataset small enough that
// compute is negligible. The what-if model assumes workers progress in
// parallel — true of the clusters it profiles, false of three CPU-bound
// goroutines on a one- or two-core box; sleeps overlap where spins would
// serialize, which keeps the comparison honest there and at any size.
func critpathGate(ctx context.Context, sc Scale) ([]Row, error) {
	const (
		workers        = 3
		partitions     = 6
		reducers       = 6
		taskService    = 40 * time.Millisecond
		stragglerStall = 400 * time.Millisecond
	)
	data := qws.Dataset(sc.Seed, sc.CritpathN, 6)
	spec, err := skyjob.SpecFor(data, partition.Angular, partitions)
	if err != nil {
		return nil, err
	}
	// oneRun starts a master and three workers — the last stalling w2Stall
	// — runs the pipeline and analyzes the stitched trace.
	oneRun := func(w2Stall time.Duration) (*critpath.Analysis, error) {
		master, err := rpcmr.NewMaster(rpcmr.MasterConfig{
			SplitSize:      (len(data) + partitions - 1) / partitions,
			LivenessWindow: 2 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		var ws []*rpcmr.Worker
		var wg sync.WaitGroup
		defer func() {
			master.Close()
			for _, w := range ws {
				w.Close()
			}
			wg.Wait()
		}()
		for i := 0; i < workers; i++ {
			stall := taskService
			if i == workers-1 {
				stall = w2Stall
			}
			w, err := rpcmr.NewWorker(rpcmr.WorkerConfig{
				MasterAddr: master.Addr(), ID: fmt.Sprintf("w%d", i),
				PollInterval: time.Millisecond, TaskStall: stall,
			})
			if err != nil {
				return nil, err
			}
			ws = append(ws, w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = w.Run(ctx) // returns once the master and the worker are closed
			}()
		}
		tracer, recorder := telemetry.NewTracer(), telemetry.NewRecorder("skybench:critpath")
		if _, err := skyjob.ComputeSpec(telemetry.WithRecorder(telemetry.WithTracer(ctx, tracer), recorder), master, data, spec, reducers); err != nil {
			return nil, err
		}
		master.Drain()
		return critpath.Analyze(tracer.Spans(), recorder.Report())
	}

	stalled, err := oneRun(stragglerStall)
	if err != nil {
		return nil, err
	}
	var predicted float64
	for _, s := range stalled.WhatIf {
		if s.Name == "no-straggler" {
			predicted = s.PredictedSeconds
		}
	}
	var clean []float64
	for i := 0; i < max(sc.Runs, 1); i++ {
		a, err := oneRun(taskService)
		if err != nil {
			return nil, err
		}
		clean = append(clean, a.MakespanSeconds)
	}
	sort.Float64s(clean)
	median := (clean[(len(clean)-1)/2] + clean[len(clean)/2]) / 2
	stragglers := 0
	for _, w := range stalled.Workers {
		if w.Straggler {
			stragglers++
		}
	}
	var r rows
	r.add("stalled/makespan_s", stalled.MakespanSeconds, "s")
	r.add("clean_median/makespan_s", median, "s")
	r.add("predicted_clean/makespan_s", predicted, "s")
	r.gate(sc.Gate, "stalled/stragglers", float64(stragglers), "workers", "higher", 1)
	predErr := 1.0 // no prediction, or no clean makespan, fails the gate
	if predicted > 0 && median > 0 {
		predErr = math.Abs(predicted-median) / median
	}
	r.gate(sc.Gate, "stalled/prediction_error", predErr, "ratio", "lower", 0.25)
	return r, nil
}

// obsRules is the production rule set skymaster installs, minus the
// cluster-fed ones that need federated series to exist.
func obsRules(window time.Duration) []timeseries.Rule {
	return []timeseries.Rule{
		timeseries.PairedStallRule("throughput-stall", "rpcmr_worker_tasks_done",
			"rpcmr_worker_inflight", "worker", window, 1),
		timeseries.GaugeAboveRule("heartbeat-gap", "rpcmr_worker_state", 1, "worker"),
		timeseries.RateAboveRule("gc-pause-spike", "process_gc_pause_seconds_total", 0.05, window),
	}
}

// obs prices the observability plane: the same MR-Angle computation with a
// metrics registry alone versus with the debug plane's clock sampling that
// registry and evaluating the rules every 10ms (production: 1s), gated at
// 1.05×. Sampling reads atomics and writes ring slots off the compute path,
// so the plane must be close to free. The micro rows price one sampler tick
// and one watchdog evaluation over the registry the pipeline populated.
func obs(ctx context.Context, sc Scale) ([]Row, error) {
	data := qws.Dataset(sc.Seed, sc.ObsN, 6)
	// Both arms carry identical registries, process metrics included, so
	// the ratio prices the reader side alone.
	plainReg, sampledReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	telemetry.RegisterProcessMetrics(plainReg)
	telemetry.RegisterProcessMetrics(sampledReg)
	plain, sampled, err := obsArms(ctx, data, sc, plainReg, sampledReg)
	if err != nil {
		return nil, err
	}
	series := 0
	sampledReg.VisitSamples(func(string, float64) { series++ })
	sampler := timeseries.NewSampler(sampledReg, timeseries.Config{Retention: 1024})
	wd := timeseries.NewWatchdog(sampler, timeseries.WatchdogConfig{Metrics: sampledReg}, obsRules(time.Second)...)
	const micro = 1000 // calls per timing; neither call can fail
	tick, _ := best(3, func() error {
		for i := 0; i < micro; i++ {
			sampler.Sample()
		}
		return nil
	})
	eval, _ := best(3, func() error {
		for i := 0; i < micro; i++ {
			wd.Evaluate()
		}
		return nil
	})
	var r rows
	r.add("plain/wall_s", plain.Seconds(), "s")
	r.add("sampled/wall_s", sampled.Seconds(), "s")
	r.gate(sc.Gate, "ratio/sampling_overhead", ratio(float64(sampled), float64(plain)), "x", "lower", 1.05)
	r.add("micro/series", float64(series), "series")
	r.add("micro/sample_tick_ns", float64(tick.Nanoseconds())/micro, "ns")
	r.add("micro/watchdog_eval_ns", float64(eval.Nanoseconds())/micro, "ns")
	return r, nil
}

// obsArms times the pipeline over plainReg and over sampledReg with a debug
// plane sampling it, best of 3 × Scale.Runs after one untimed warm-up each;
// the arms interleave so clock drift and box contention fall on both alike.
func obsArms(ctx context.Context, data points.Set, sc Scale, plainReg, sampledReg *telemetry.Registry) (plain, sampled time.Duration, err error) {
	plane, err := debugserver.Start("", debugserver.Sources{
		Metrics: sampledReg, Rules: obsRules(time.Second), Interval: 10 * time.Millisecond,
	})
	if err != nil {
		return 0, 0, err
	}
	defer plane.Close(nil)
	compute := func(reg *telemetry.Registry) func() error {
		return func() error {
			_, _, err := driver.Compute(ctx, data, driver.Options{Scheme: partition.Angular, Nodes: sc.Nodes, Metrics: reg})
			return err
		}
	}
	plain, sampled = math.MaxInt64, math.MaxInt64
	// A pipeline run is tens of milliseconds, so a ratio of two of them
	// needs more draws than one timed row does.
	for i := 0; i <= 3*max(sc.Runs, 1); i++ {
		p, err := best(1, compute(plainReg))
		if err != nil {
			return 0, 0, err
		}
		s, err := best(1, compute(sampledReg))
		if err != nil {
			return 0, 0, err
		}
		if i > 0 {
			plain, sampled = min(plain, p), min(sampled, s)
		}
	}
	return plain, sampled, nil
}
