// Command skyload drives a skyline registry (skyserve) with a mixed
// publish/query workload and reports latency percentiles — the capacity
// check an operator runs before putting the registry in front of clients.
//
// Usage:
//
//	skyload [-url http://host:8080] [-publishes 1000] [-queries 1000]
//	        [-concurrency 8] [-d 4] [-seed 1] [-prom metrics.prom]
//	        [-slo-p99 50ms] [-slo-avail 0.999]
//
// With no -url, skyload boots an in-process registry (1,000 synthetic
// seed services) and load-tests that, so the tool works out of the box.
// With -prom, the client-side latency histograms are also written as a
// Prometheus text exposition, ready for node_exporter's textfile
// collector or offline diffing between runs.
//
// With -slo-p99 and/or -slo-avail, skyload turns into an SLO check: it
// compares the achieved skyline-read p99 and the achieved availability
// (non-failed fraction of all requests) against the targets, prints
// achieved-versus-target lines, and exits nonzero when an objective is
// missed — the CI-able form of "does the registry meet its SLO under
// this load".
//
// With -duration, skyload switches to closed-loop throughput mode:
// -workers goroutines issue skyline reads back-to-back for the duration
// (optionally against a concurrent publish stream, -publish-interval)
// and the report is achieved QPS plus p50/p99. -min-qps turns that into
// a gate that exits nonzero below the target — the serving core's
// capacity check:
//
//	skyload -workers 16 -duration 3s -min-qps 100000 -slo-p99 5ms
//
// In closed-loop in-process mode (no -url) the workers drive the
// registry handler directly, function call per request, so the gate
// measures the serving core rather than the kernel's TCP stack.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	skymr "repro"
	"repro/internal/driver"
	"repro/internal/latency"
	"repro/internal/partition"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

func main() {
	url := flag.String("url", "", "registry base URL (empty: boot an in-process registry)")
	publishes := flag.Int("publishes", 1000, "number of POST /services requests")
	queries := flag.Int("queries", 1000, "number of GET /skyline requests")
	concurrency := flag.Int("concurrency", 8, "concurrent client workers")
	dim := flag.Int("d", 4, "QoS attributes of generated services (in-process mode and publish bodies)")
	seed := flag.Int64("seed", 1, "workload seed")
	prom := flag.String("prom", "", "write client-side latency histograms to this file as Prometheus text (empty = off)")
	sloP99 := flag.Duration("slo-p99", 0, "fail unless the achieved skyline-read p99 is at most this (0 = no check)")
	sloAvail := flag.Float64("slo-avail", 0, "fail unless the achieved non-failure fraction is at least this (0 = no check)")
	workers := flag.Int("workers", 16, "closed-loop mode: concurrent query workers")
	duration := flag.Duration("duration", 0, "closed-loop mode: run workers back-to-back for this long (0 = fixed-op mode)")
	minQPS := flag.Float64("min-qps", 0, "closed-loop mode: fail below this achieved queries/s (0 = report only)")
	pubEvery := flag.Duration("publish-interval", 0, "closed-loop mode: publish a fresh service this often in the background (0 = reads only)")
	flag.Parse()

	var err error
	if *duration > 0 {
		err = runClosedLoop(*url, *workers, *duration, *minQPS, *dim, *seed, *sloP99, *pubEvery)
	} else {
		err = run(*url, *publishes, *queries, *concurrency, *dim, *seed, *prom, *sloP99, *sloAvail)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "skyload: %v\n", err)
		os.Exit(1)
	}
}

// discardWriter is the closed-loop in-process ResponseWriter: it
// swallows the body, so a "request" is one handler call with no kernel
// round-trip — exactly the serving-core cost.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 2)
	}
	return w.h
}
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// runClosedLoop is the throughput mode: workers hammer GET /skyline for
// the duration and the achieved QPS / p50 / p99 are gated.
func runClosedLoop(baseURL string, workers int, duration time.Duration, minQPS float64,
	dim int, seed int64, sloP99, pubEvery time.Duration) error {
	if workers < 1 {
		return fmt.Errorf("workers %d, need >= 1", workers)
	}

	var handler http.Handler
	var reg *registry.Registry
	if baseURL == "" {
		data := skymr.GenerateQWS(seed, 1000, dim)
		seeds := make([]registry.Service, len(data))
		for i, p := range data {
			seeds[i] = registry.Service{Name: fmt.Sprintf("seed-%06d", i), QoS: p}
		}
		var err error
		reg, err = registry.New(context.Background(), seeds, driver.Options{Scheme: partition.Angular})
		if err != nil {
			return err
		}
		handler = reg.Handler()
		fmt.Fprintf(os.Stderr, "skyload: closed loop against in-process registry (%d seed services, handler-direct)\n", reg.Len())
	}

	// Optional background publish stream: fresh services entering during
	// the measurement, so the gate covers reads under write load (cache
	// invalidations included).
	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	var published int64
	if pubEvery > 0 {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			newcomers := skymr.GenerateQWS(seed+2, 1<<16, dim)
			client := &http.Client{Timeout: 30 * time.Second}
			tick := time.NewTicker(pubEvery)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				s := registry.Service{
					Name: fmt.Sprintf("cl-%d-%06d", seed, i),
					QoS:  newcomers[i%len(newcomers)],
				}
				if reg != nil {
					if _, err := reg.Publish(s); err != nil {
						return
					}
				} else {
					body, _ := json.Marshal(s)
					if err := doPublish(client, baseURL, body); err != nil {
						return
					}
				}
				atomic.AddInt64(&published, 1)
			}
		}()
	}

	shards := make([]latency.Tracker, workers)
	counts := make([]int64, workers)
	var failures int64
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if handler != nil {
				req := httptest.NewRequest(http.MethodGet, "/skyline", nil)
				var dw discardWriter
				for time.Now().Before(deadline) {
					t0 := time.Now()
					dw.status = 0
					handler.ServeHTTP(&dw, req)
					shards[w].Observe(time.Since(t0))
					counts[w]++
					if dw.status >= 400 {
						atomic.AddInt64(&failures, 1)
					}
				}
				return
			}
			client := &http.Client{Timeout: 30 * time.Second}
			for time.Now().Before(deadline) {
				t0 := time.Now()
				err := doQuery(client, baseURL)
				shards[w].Observe(time.Since(t0))
				counts[w]++
				if err != nil {
					atomic.AddInt64(&failures, 1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	pubWG.Wait()

	var lat latency.Tracker
	var total int64
	for w := 0; w < workers; w++ {
		lat.Merge(&shards[w])
		total += counts[w]
	}
	qps := float64(total) / elapsed.Seconds()
	sum := lat.Summary()

	fmt.Printf("closed loop: %d workers x %s: %d queries (%.0f queries/s), %d background publishes\n\n",
		workers, duration, total, qps, atomic.LoadInt64(&published))
	sum.Write(os.Stdout, "skyline")
	if failures > 0 {
		return fmt.Errorf("%d requests failed", failures)
	}
	failed := false
	if minQPS > 0 {
		ok := qps >= minQPS
		fmt.Printf("\ngate: throughput    achieved=%-12.0f target>=%-10.0f %s\n", qps, minQPS, passFail(ok))
		failed = failed || !ok
	}
	if sloP99 > 0 {
		ok := sum.P99 <= sloP99
		if minQPS <= 0 {
			fmt.Println()
		}
		fmt.Printf("gate: skyline p99   achieved=%-12s target<=%-10s %s\n",
			sum.P99.Round(time.Microsecond), sloP99, passFail(ok))
		failed = failed || !ok
	}
	if failed {
		return fmt.Errorf("throughput gate failed")
	}
	return nil
}

func run(baseURL string, publishes, queries, concurrency, dim int, seed int64, promFile string,
	sloP99 time.Duration, sloAvail float64) error {
	if concurrency < 1 {
		return fmt.Errorf("concurrency %d, need >= 1", concurrency)
	}
	if baseURL == "" {
		data := skymr.GenerateQWS(seed, 1000, dim)
		seeds := make([]registry.Service, len(data))
		for i, p := range data {
			seeds[i] = registry.Service{Name: fmt.Sprintf("seed-%06d", i), QoS: p}
		}
		reg, err := registry.New(context.Background(), seeds, driver.Options{Scheme: partition.Angular})
		if err != nil {
			return err
		}
		srv := httptest.NewServer(reg.Handler())
		defer srv.Close()
		baseURL = srv.URL
		fmt.Fprintf(os.Stderr, "skyload: in-process registry with %d seed services at %s\n", reg.Len(), baseURL)
	}

	// Build the operation mix up front: publishes then queries, shuffled.
	type op struct {
		publish bool
		body    []byte
	}
	rng := rand.New(rand.NewSource(seed + 1))
	newcomers := skymr.GenerateQWS(seed+2, publishes, dim)
	ops := make([]op, 0, publishes+queries)
	for i := 0; i < publishes; i++ {
		body, err := json.Marshal(registry.Service{
			Name: fmt.Sprintf("load-%d-%06d", seed, i),
			QoS:  newcomers[i],
		})
		if err != nil {
			return err
		}
		ops = append(ops, op{publish: true, body: body})
	}
	for i := 0; i < queries; i++ {
		ops = append(ops, op{})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	// Each worker records into its own trackers — no cross-worker lock
	// traffic on the hot path — and the shards are merged for the report.
	var failures int64
	client := &http.Client{Timeout: 30 * time.Second}
	work := make(chan op)
	var wg sync.WaitGroup
	pubShards := make([]latency.Tracker, concurrency)
	queryShards := make([]latency.Tracker, concurrency)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for o := range work {
				start := time.Now()
				var err error
				if o.publish {
					err = doPublish(client, baseURL, o.body)
					pubShards[w].Observe(time.Since(start))
				} else {
					err = doQuery(client, baseURL)
					queryShards[w].Observe(time.Since(start))
				}
				if err != nil {
					atomic.AddInt64(&failures, 1)
				}
			}
		}(w)
	}
	start := time.Now()
	for _, o := range ops {
		work <- o
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	var pubLat, queryLat latency.Tracker
	for w := 0; w < concurrency; w++ {
		pubLat.Merge(&pubShards[w])
		queryLat.Merge(&queryShards[w])
	}

	fmt.Printf("workload: %d publishes + %d queries, %d workers, %s total (%.0f ops/s)\n\n",
		publishes, queries, concurrency, elapsed.Round(time.Millisecond),
		float64(publishes+queries)/elapsed.Seconds())
	pubLat.Summary().Write(os.Stdout, "publish")
	queryLat.Summary().Write(os.Stdout, "skyline")
	if promFile != "" {
		if err := exportProm(promFile, &pubLat, &queryLat); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "skyload: latency histograms written to %s\n", promFile)
	}
	// SLO checks: achieved versus target, one line each, all evaluated
	// before failing so the report is complete either way.
	sloFailed := false
	if sloP99 > 0 {
		achieved := queryLat.Summary().P99
		ok := achieved <= sloP99
		fmt.Printf("\nslo: skyline p99   achieved=%-10s target<=%-10s %s\n",
			achieved.Round(time.Microsecond), sloP99, passFail(ok))
		if !ok {
			sloFailed = true
		}
	}
	if sloAvail > 0 {
		total := publishes + queries
		achieved := 1.0
		if total > 0 {
			achieved = float64(int64(total)-failures) / float64(total)
		}
		ok := achieved >= sloAvail
		if sloP99 <= 0 {
			fmt.Println()
		}
		fmt.Printf("slo: availability  achieved=%-10.6f target>=%-10g %s\n",
			achieved, sloAvail, passFail(ok))
		if !ok {
			sloFailed = true
		}
	}
	if failures > 0 && sloAvail <= 0 {
		return fmt.Errorf("%d requests failed", failures)
	}
	if sloFailed {
		return fmt.Errorf("slo violated")
	}
	return nil
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// exportProm feeds the merged trackers into a telemetry registry
// bucket-by-bucket and writes the Prometheus text exposition.
func exportProm(path string, pubLat, queryLat *latency.Tracker) error {
	bounds := make([]time.Duration, 0, 16)
	for _, s := range telemetry.DurationBuckets() {
		bounds = append(bounds, time.Duration(s*float64(time.Second)))
	}
	reg := telemetry.NewRegistry()
	feed := func(opLabel string, tr *latency.Tracker) {
		h := reg.Histogram("skyload_request_seconds", telemetry.DurationBuckets(),
			telemetry.L("op", opLabel))
		for i, n := range tr.Histogram(bounds) {
			if n == 0 {
				continue
			}
			// Represent each bucket by its upper bound (overflow by 2× the
			// last bound) — exact per-bucket counts, approximate sum.
			v := bounds[len(bounds)-1].Seconds() * 2
			if i < len(bounds) {
				v = bounds[i].Seconds()
			}
			h.ObserveN(v, n)
		}
	}
	feed("publish", pubLat)
	feed("skyline", queryLat)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func doPublish(client *http.Client, base string, body []byte) error {
	resp, err := client.Post(base+"/services", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("publish status %d", resp.StatusCode)
	}
	return nil
}

func doQuery(client *http.Client, base string) error {
	resp, err := client.Get(base + "/skyline")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query status %d", resp.StatusCode)
	}
	return nil
}
