package main

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	quick   bool
	outDir  string // result, trace and scratch files go here
}

const (
	minSetUps = 5 // set-ups per run, never fewer; setup_s is their median
	minJobs   = 5 // timed jobs per run, never fewer
	minRounds = 3 // serve rounds per run, never fewer
	// A set-up of milliseconds repeats until setUpBudget is spent (at most
	// maxSetUps times): the shorter a set-up, the more of them its median
	// needs to hold still.
	maxSetUps   = 1000
	setUpBudget = 1500 * time.Millisecond
)

func (c runConfig) minimums() (jobs, rounds int) {
	if c.quick {
		return 2, 2
	}
	return minJobs, minRounds
}

// runTimed measures the end-to-end metrics, tracing off: set-up (several
// times, median), batch jobs for BatchShare of the budget, serve rounds for
// the rest where the workload serves, and only then verification. Every
// timed job and serve round starts from a heap handed back to the OS and
// has a resident-set high-water mark of its own; peak_rss_mb is their
// median, because the mark of a whole run is its one unluckiest job's.
func runTimed(c runConfig) (*report, error) {
	rep := newReport(c.w.Name, false, c.quick, c.seed)
	tmp, err := os.MkdirTemp(c.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	serves := c.w.BatchShare < 1
	var e *env
	var setupS []float64
	setUpStart := time.Now()
	for i := 0; i < minSetUps || (!c.quick && i < maxSetUps && time.Since(setUpStart) < setUpBudget); i++ {
		if e != nil {
			e.close()
			e = nil
			debug.FreeOSMemory() // the previous input must not count towards peak RSS
		}
		t0 := time.Now()
		if e, err = setUp(c.w, c.seed, tmp, serves); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { e.close() }()
	rep.setMedian("setup_s", setupS)

	minJ, minR := c.minimums()
	budget := time.Duration(c.seconds * float64(time.Second))
	batchBudget := time.Duration(float64(budget) * c.w.BatchShare)

	// Batch section: one warm-up job, then timed jobs until the budget is
	// spent. Checksums are kept and compared after the reference is known.
	ctx := context.Background()
	deadline := time.Now().Add(batchBudget)
	first, err := e.runJob(ctx, engineWorkers)
	if err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	var jobS, shuffle, jobPeak []float64
	var sums []checksum
	for i := 0; i < minJ || time.Now().Before(deadline); i++ {
		resetPeakRSS()
		j, err := e.runJob(ctx, engineWorkers)
		jobPeak = append(jobPeak, peakRSSMB())
		if err != nil {
			rep.op(fmt.Sprintf("job %d", i), err)
			continue
		}
		jobS = append(jobS, j.wall)
		shuffle = append(shuffle, float64(j.shuffleBytes)/float64(c.w.N))
		sums = append(sums, checksumOf(j.sky))
	}
	if len(jobS) == 0 {
		return rep, fmt.Errorf("every timed job failed: %v", rep.Failures)
	}
	rep.setMedian("job_s", jobS)
	rep.setMedian("shuffle_bytes_per_point", shuffle)
	rep.setMedian("peak_rss_mb", jobPeak)

	// Serve section. Its speed is kept as extra numbers: measured with
	// tracing off, printed and filed, but not gated (catalog.go says why).
	if serves {
		rounds, err := e.serveSection(rep, budget-batchBudget, minR)
		if err != nil {
			return nil, err
		}
		serveMetrics(rounds, func(name string, xs []float64) {
			rep.Samples[name] = xs
			rep.Extra[name] = median(xs)
		})
		// The workload's memory is its hungrier section's.
		var roundPeak []float64
		for _, r := range rounds {
			roundPeak = append(roundPeak, r.peakMB)
		}
		if median(roundPeak) > median(jobPeak) {
			rep.setMedian("peak_rss_mb", roundPeak)
		}
	}

	// Verification, outside every timed region.
	ref, err := e.reference()
	if err != nil {
		return nil, err
	}
	var mismatch error
	if !sameMultiset(first.sky, ref) {
		mismatch = fmt.Errorf("skyline of %d points differs from the SFS reference of %d", len(first.sky), len(ref))
	}
	rep.op("warm-up job against the SFS reference", mismatch)
	want := checksumOf(ref)
	for i, got := range sums {
		var err error
		if got != want {
			err = fmt.Errorf("checksum %v differs from the reference %v", got, want)
		}
		rep.op(fmt.Sprintf("job %d", i), err)
	}
	return rep, nil
}
