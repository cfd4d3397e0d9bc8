package main

// The critpath suite validates the profiler's what-if model against
// ground truth: run the two-job skyline pipeline on a 3-worker
// in-process cluster with one worker straggling on every task, take
// the analyzer's "no-straggler" prediction from that run's trace, then
// actually re-run straggler-free and compare. The gate requires the
// prediction to land within -maxerr (default 25%) of the measured
// clean median — the acceptance bound for the whole profiler: if the
// model can't predict the one intervention we can test, its rebalance
// advice isn't worth acting on.
//
// Task cost is sleep-simulated: every worker stalls taskService before
// each task and the straggler stalls stragglerStall, with the dataset
// kept small enough that real compute is negligible. The what-if model
// assumes workers progress in parallel — true of the distributed
// clusters it profiles, false of three CPU-bound goroutines on the
// single-core CI container this suite runs on. Simulated service time
// keeps the ground-truth comparison honest there (sleeps overlap;
// spins would serialize), and makes the gate scale-robust, so it holds
// in -quick mode too.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/partition"
	"repro/internal/qws"
	"repro/internal/rpcmr"
	"repro/internal/skyjob"
	"repro/internal/telemetry"
	"repro/internal/telemetry/critpath"
)

type critpathRunRow struct {
	Name            string             `json:"name"`
	WallSeconds     float64            `json:"wall_seconds"`
	MakespanSeconds float64            `json:"makespan_seconds"`
	BottleneckPhase string             `json:"bottleneck_phase"`
	StragglerWorker string             `json:"straggler_worker,omitempty"`
	Stragglers      int                `json:"stragglers"`
	WhatIf          []critpath.Scenario `json:"whatif,omitempty"`
}

type critpathReport struct {
	Timestamp        string         `json:"timestamp"`
	N                int            `json:"n"`
	D                int            `json:"d"`
	Partitions       int            `json:"partitions"`
	Reducers         int            `json:"reducers"`
	Workers          int            `json:"workers"`
	Runs             int            `json:"runs"`
	Quick            bool           `json:"quick"`
	TaskServiceMS    int64          `json:"task_service_ms"`
	StragglerStallMS int64          `json:"straggler_stall_ms"`
	Stalled          critpathRunRow `json:"stalled"`
	CleanRuns        []float64      `json:"clean_runs_seconds"`
	CleanMedian      float64        `json:"clean_median_seconds"`
	PredictedSeconds float64        `json:"predicted_seconds"`
	PredictionError  float64        `json:"prediction_error"`
	MaxError         float64        `json:"max_error"`
	Gated            bool           `json:"gated"`
	Pass             bool           `json:"pass"`
	Notes            string         `json:"notes"`
}

const critpathNote = "predicted_seconds is the stalled run's no-straggler scenario; " +
	"prediction_error compares it to the median makespan of actual straggler-free re-runs " +
	"on the same data and cluster shape"

func critpathSuite(n, d, runs int, maxErr float64, quick bool, out string) {
	const (
		workers        = 3
		partitions     = 6
		reducers       = 6
		taskService    = 40 * time.Millisecond
		stragglerStall = 400 * time.Millisecond
	)
	// The suite owns its dataset size: task time is sleep-simulated, so
	// -n only adds compute noise to the ground-truth comparison.
	n = 12000
	if quick {
		n, runs = 6000, 2
	}
	if runs < 1 {
		runs = 1
	}
	fmt.Fprintf(os.Stderr, "benchgate: critpath suite n=%d d=%d workers=%d service=%s straggler=%s runs=%d\n",
		n, d, workers, taskService, stragglerStall, runs)
	data := qws.Dataset(2012, n, d)
	spec, err := skyjob.SpecFor(data, partition.Angular, partitions)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	// oneRun spins up a fresh in-process cluster — a master plus three
	// workers with taskService of simulated per-task time, the last
	// stalling w2Stall instead — runs the two-job pipeline, and analyzes
	// the stitched trace. The straggler-free ground truth is
	// oneRun(taskService): the straggler pulled back to the pack, which
	// is exactly what the no-straggler scenario models.
	oneRun := func(w2Stall time.Duration) (float64, *critpath.Analysis) {
		master, err := rpcmr.NewMaster(rpcmr.MasterConfig{
			SplitSize:      (n + partitions - 1) / partitions,
			LivenessWindow: 2 * time.Second,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		var wg sync.WaitGroup
		var ws []*rpcmr.Worker
		for i := 0; i < workers; i++ {
			cfg := rpcmr.WorkerConfig{
				MasterAddr:   master.Addr(),
				ID:           fmt.Sprintf("w%d", i),
				PollInterval: time.Millisecond,
				TaskStall:    taskService,
			}
			if i == workers-1 {
				cfg.TaskStall = w2Stall
			}
			w, err := rpcmr.NewWorker(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchgate:", err)
				os.Exit(2)
			}
			ws = append(ws, w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = w.Run(context.Background())
			}()
		}
		tracer := telemetry.NewTracer()
		recorder := telemetry.NewRecorder("benchgate:critpath")
		ctx := telemetry.WithTracer(context.Background(), tracer)
		ctx = telemetry.WithRecorder(ctx, recorder)
		start := time.Now()
		if _, err := skyjob.ComputeSpec(ctx, master, data, spec, reducers); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: pipeline failed:", err)
			os.Exit(2)
		}
		wall := time.Since(start).Seconds()
		master.Drain()
		master.Close()
		for _, w := range ws {
			w.Close()
		}
		wg.Wait()
		a, err := critpath.Analyze(tracer.Spans(), recorder.Report())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: critpath analysis:", err)
			os.Exit(2)
		}
		return wall, a
	}

	toRow := func(name string, wall float64, a *critpath.Analysis) critpathRunRow {
		row := critpathRunRow{Name: name, WallSeconds: wall,
			MakespanSeconds: a.MakespanSeconds, WhatIf: a.WhatIf}
		var top critpath.PhaseBlame
		for _, p := range a.Phases {
			if p.Seconds > top.Seconds {
				top = p
			}
		}
		row.BottleneckPhase = top.Phase
		for _, w := range a.Workers {
			if w.Straggler {
				row.Stragglers++
				if row.StragglerWorker == "" {
					row.StragglerWorker = w.Worker
				}
			}
		}
		return row
	}

	stalledWall, stalledA := oneRun(stragglerStall)
	stalled := toRow("stalled", stalledWall, stalledA)
	var predicted float64
	for _, sc := range stalledA.WhatIf {
		if sc.Name == "no-straggler" {
			predicted = sc.PredictedSeconds
		}
	}

	var clean []float64
	for i := 0; i < runs; i++ {
		_, a := oneRun(taskService)
		clean = append(clean, a.MakespanSeconds)
	}
	sort.Float64s(clean)
	median := clean[len(clean)/2]
	if len(clean)%2 == 0 {
		median = (clean[len(clean)/2-1] + clean[len(clean)/2]) / 2
	}

	rep := critpathReport{
		Timestamp:        time.Now().UTC().Format(time.RFC3339),
		N:                n,
		D:                d,
		Partitions:       partitions,
		Reducers:         reducers,
		Workers:          workers,
		Runs:             runs,
		Quick:            quick,
		TaskServiceMS:    taskService.Milliseconds(),
		StragglerStallMS: stragglerStall.Milliseconds(),
		Stalled:          stalled,
		CleanRuns:        clean,
		CleanMedian:      median,
		PredictedSeconds: predicted,
		MaxError:         maxErr,
		Gated:            true,
		Notes:            critpathNote,
	}
	if median > 0 {
		rep.PredictionError = math.Abs(predicted-median) / median
	}
	rep.Pass = predicted > 0 && median > 0 && rep.PredictionError <= maxErr

	fmt.Fprintf(os.Stderr, "  stalled run:  makespan %.3fs, bottleneck %s, %d straggler worker(s)\n",
		stalled.MakespanSeconds, stalled.BottleneckPhase, stalled.Stragglers)
	for _, sc := range stalled.WhatIf {
		fmt.Fprintf(os.Stderr, "  what-if %-15s %8.3fs  %5.2fx\n", sc.Name, sc.PredictedSeconds, sc.SpeedupX)
	}
	fmt.Fprintf(os.Stderr, "  clean median: %.3fs over %d run(s) %v\n", median, len(clean), clean)
	fmt.Fprintf(os.Stderr, "  no-straggler prediction %.3fs vs measured %.3fs — error %.1f%% (max %.0f%%)\n",
		predicted, median, rep.PredictionError*100, maxErr*100)

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchgate: wrote %s\n", out)
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL — no-straggler prediction off by %.1f%% (max %.0f%%)\n",
			rep.PredictionError*100, maxErr*100)
		os.Exit(1)
	}
}
