package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/driver"
	"repro/internal/partition"
	"repro/internal/qws"
	"repro/internal/telemetry"
	"repro/internal/telemetry/debugserver"
	"repro/internal/telemetry/timeseries"
)

// The obs suite prices the cluster observability plane: the same
// MR-Angle computation with a metrics registry alone versus with the
// debug plane's clock running against that registry — sampling it and
// evaluating the stall/GC rules every 10ms (far hotter than the
// production 1s default). The gate bounds
// the sampled run at obsMaxOverhead of the plain one: sampling reads
// atomics and writes ring slots off the compute path, so the plane
// must be close to free. Two micro rows price the primitives
// themselves — one sampler tick and one watchdog evaluation over the
// registry the pipeline just populated — informational, for sizing
// cadence budgets.
const obsNote = "gate: sampled_ns / plain_ns <= max_overhead for the end-to-end pipeline with the " +
	"debug plane's clock at 10ms (production cadence is 1s); the sample_tick and " +
	"watchdog_eval rows are per-invocation micro costs, reported, not gated"

const obsMaxOverhead = 1.05

type obsRow struct {
	Name   string `json:"name"`
	Runs   int    `json:"runs"`
	WallNS int64  `json:"wall_ns"`
}

type obsReport struct {
	Timestamp string `json:"timestamp"`
	N         int    `json:"n"`
	D         int    `json:"d"`
	Nodes     int    `json:"nodes"`
	Runs      int    `json:"runs"`
	Quick     bool   `json:"quick"`

	Plain    obsRow  `json:"plain"`
	Sampled  obsRow  `json:"sampled"`
	Overhead float64 `json:"sampling_overhead"`
	Max      float64 `json:"max_overhead"`

	Series       int     `json:"series"`
	SampleTickNS float64 `json:"sample_tick_ns"`
	WatchdogNS   float64 `json:"watchdog_eval_ns"`

	Gated bool   `json:"gated"`
	Pass  bool   `json:"pass"`
	Notes string `json:"notes"`
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

func obsSuite(n, d, nodes, runs int, quick bool, out string) {
	if quick {
		n, runs = 20000, 2
	}
	fmt.Fprintf(os.Stderr, "benchgate: obs suite n=%d d=%d nodes=%d runs=%d\n", n, d, nodes, runs)
	data := qws.Dataset(2012, n, d)
	ctx := context.Background()

	compute := func(reg *telemetry.Registry) {
		opts := driver.Options{Scheme: partition.Angular, Nodes: nodes, Metrics: reg}
		if _, _, err := driver.Compute(ctx, data, opts); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: pipeline failed:", err)
			os.Exit(2)
		}
	}

	rep := obsReport{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		N:         n,
		D:         d,
		Nodes:     nodes,
		Runs:      runs,
		Quick:     quick,
		Max:       obsMaxOverhead,
		Gated:     !quick,
		Notes:     obsNote,
	}

	// Both arms carry identical registries — process metrics included —
	// so the ratio prices exactly the reader side (sampler + watchdog),
	// not registration differences. Runs are interleaved plain/sampled
	// so clock drift and container contention fall on both arms alike.
	plainReg := telemetry.NewRegistry()
	telemetry.RegisterProcessMetrics(plainReg)
	sampledReg := telemetry.NewRegistry()
	telemetry.RegisterProcessMetrics(sampledReg)
	plane, err := debugserver.Start("", debugserver.Sources{
		Metrics: sampledReg, Rules: obsRules(time.Second), Interval: 10 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	compute(plainReg)   // warm-up, untimed
	compute(sampledReg) // warm-up, untimed
	var plainWall, sampledWall int64 = 1<<63 - 1, 1<<63 - 1
	for r := 0; r < runs; r++ {
		start := time.Now()
		compute(plainReg)
		if el := time.Since(start).Nanoseconds(); el < plainWall {
			plainWall = el
		}
		start = time.Now()
		compute(sampledReg)
		if el := time.Since(start).Nanoseconds(); el < sampledWall {
			sampledWall = el
		}
	}
	_ = plane.Close(nil)
	rep.Plain = obsRow{Name: "pipeline_plain", Runs: runs, WallNS: plainWall}
	rep.Sampled = obsRow{Name: "pipeline_sampled", Runs: runs, WallNS: sampledWall}
	rep.Overhead = float64(rep.Sampled.WallNS) / float64(rep.Plain.WallNS)

	// Micro rows over the registry the sampled pipeline populated.
	sampledReg.VisitSamples(func(string, float64) { rep.Series++ })
	sampler := timeseries.NewSampler(sampledReg, timeseries.Config{Retention: 1024})
	wd := timeseries.NewWatchdog(sampler, timeseries.WatchdogConfig{Metrics: sampledReg}, obsRules(time.Second)...)
	tickRuns := 1000
	rep.SampleTickNS = float64(best(3, func() {
		for i := 0; i < tickRuns; i++ {
			sampler.Sample()
		}
	})) / float64(tickRuns)
	evalRuns := 1000
	rep.WatchdogNS = float64(best(3, func() {
		for i := 0; i < evalRuns; i++ {
			wd.Evaluate()
		}
	})) / float64(evalRuns)

	rep.Pass = quick || rep.Overhead <= obsMaxOverhead

	for _, r := range []obsRow{rep.Plain, rep.Sampled} {
		fmt.Fprintf(os.Stderr, "  %-18s wall=%s\n", r.Name, time.Duration(r.WallNS))
	}
	fmt.Fprintf(os.Stderr, "  sampling overhead = %.3fx (max %.2fx)\n", rep.Overhead, rep.Max)
	fmt.Fprintf(os.Stderr, "  series=%d sample_tick=%s watchdog_eval=%s\n",
		rep.Series, time.Duration(int64(rep.SampleTickNS)), time.Duration(int64(rep.WatchdogNS)))

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
		fmt.Fprintf(os.Stderr, "benchgate: FAIL — sampling overhead %.3fx exceeds %.2fx\n",
			rep.Overhead, obsMaxOverhead)
		os.Exit(1)
	}
}
