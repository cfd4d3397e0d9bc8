// Command skyserve runs the UDDI-like skyline registry as an HTTP
// service: providers publish services with QoS vectors, clients query the
// live skyline. The skyline is maintained incrementally (paper §II) — a
// publish touches only the service's partition.
//
// Usage:
//
//	skyserve [-addr :8080] [-method angle] [-seed-n 1000] [-seed-d 4]
//	         [-seed-file data.csv] [-header] [-snapshot registry.jsonl]
//	         [-slo-p99 250ms] [-slo-avail 0.999]
//
// Publishes ride a batching pipeline (group commit: one index epoch per
// coalesced batch; an acknowledged publish is always visible) of the
// driver's default queue depth and maximum batch size. On shutdown the
// pipeline is drained before the snapshot is written, so every accepted
// publish lands in the saved catalogue.
//
// API:
//
//	POST /services      {"name": "svc-1", "qos": [120.5, 3.2, 0.7, 14]}
//	GET  /skyline       current skyline; ?explain=1 adds the per-partition plan
//	GET  /stats
//	GET  /metrics       Prometheus text exposition
//	GET  /debug/queries recent per-query cost records + cumulative totals
//	GET  /debug/slowlog top-K slowest queries; Slow marks those over -slo-p99
//
// and, on the same listener, the debug plane every binary starts
// (internal/telemetry/debugserver):
//
//	GET  /debug/pprof/  Go runtime profiles
//	GET  /debug/flightrecorder  boot computation's flight record (JSON)
//	GET  /debug/health  service health summary (JSON)
//	GET  /debug/timeseries  metric history, sampled every second
//	GET  /debug/slo     SLO burn state (objectives via -slo-p99 / -slo-avail)
//
// The objectives are read from the plane's rings, which keep the 30-minute
// burn window: a read slower than -slo-p99 counts bad, exactly, and so
// does a 5xx against -slo-avail. While every burn window (1m, 5m, 30m)
// spends its error budget faster than sustainable, the plane's watchdog
// counts an anomaly, telemetry_anomalies_total{rule="slo:<objective>"};
// set a flag to zero to disable the corresponding objective.
//
// With -snapshot, the catalogue is loaded from the file at boot (when it
// exists) and written back on SIGINT/SIGTERM, so a restarted registry
// resumes where it left off. On shutdown the service stops serving
// (in-flight requests get two seconds) and writes a last metrics snapshot
// to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	skymr "repro"
	"repro/internal/driver"
	"repro/internal/partition"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/telemetry/debugserver"
)

// serveHealth is skyserve's /debug/health document: a long-running
// registry has no task queue, so health is uptime plus catalogue shape.
type serveHealth struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Services      int     `json:"services"`
	Dim           int     `json:"dim"`
	SkylineSize   int     `json:"skyline_size"`
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	method := flag.String("method", "angle", "partitioning method: angle, grid, dim, random")
	seedN := flag.Int("seed-n", 1000, "number of synthetic seed services (ignored with -seed-file/-snapshot)")
	seedD := flag.Int("seed-d", 4, "QoS attributes of synthetic seeds")
	seedFile := flag.String("seed-file", "", "CSV file of seed services instead of synthetic data")
	header := flag.Bool("header", false, "seed CSV has a header row")
	snapshot := flag.String("snapshot", "", "catalogue file: loaded at boot, saved on shutdown")
	sloP99 := flag.Duration("slo-p99", 250*time.Millisecond, "p99 latency objective for skyline reads (0 disables)")
	sloAvail := flag.Float64("slo-avail", 0.999, "availability objective: target non-5xx request fraction (0 disables)")
	flag.Parse()

	if err := run(*addr, *method, *seedN, *seedD, *seedFile, *header, *snapshot, *sloP99, *sloAvail); err != nil {
		fmt.Fprintf(os.Stderr, "skyserve: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, method string, seedN, seedD int, seedFile string, header bool, snapshot string,
	sloP99 time.Duration, sloAvail float64) error {
	scheme, err := partition.ParseScheme(method)
	if err != nil {
		return err
	}
	// The boot computation runs under a flight recorder, so the partition
	// shape of the seeded catalogue is inspectable at /debug/flightrecorder.
	recorder := telemetry.NewRecorder(fmt.Sprintf("skyserve-boot:%s", scheme))
	start := time.Now()
	bootCtx := telemetry.WithRecorder(context.Background(), recorder)
	reg, err := bootRegistry(bootCtx, scheme, seedN, seedD, seedFile, header, snapshot)
	if err != nil {
		return err
	}
	objectives := reg.ConfigureSLO(registry.SLOOptions{P99Threshold: sloP99, Availability: sloAvail})

	// One listener: the registry's API under "/", the debug plane beside
	// it on the same mux. The plane's clock feeds /debug/timeseries from
	// the registry's own metrics, so operators read QPS and latency trends
	// off the service itself, and evaluates the objectives over it.
	mux := http.NewServeMux()
	mux.Handle("/", reg.Handler())
	plane, err := debugserver.Start(addr, debugserver.Sources{
		Metrics:    reg.Metrics(),
		Recorder:   recorder,
		Objectives: objectives,
		Health: func() any {
			return serveHealth{
				Status:        "ok",
				UptimeSeconds: time.Since(start).Seconds(),
				Services:      reg.Len(),
				Dim:           reg.Dim(),
				SkylineSize:   len(reg.Skyline()),
			}
		},
		Mux: mux,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "skyserve: %d services (%d attributes), %s partitioning, listening on %s\n",
		reg.Len(), reg.Dim(), scheme, plane.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "skyserve: %v, shutting down\n", s)
	// The listener goes first, so no publish is accepted after it; the
	// dump is written once nothing is ticking or serving. The snapshot
	// then holds every publish acknowledged before Save began, since a
	// publish is acknowledged only after its epoch is installed. A publish
	// still running when the shutdown grace ran out may miss it, as a
	// publish that had not yet been queued could before.
	_ = plane.Close(os.Stderr)
	if snapshot != "" {
		f, err := os.Create(snapshot)
		if err != nil {
			return fmt.Errorf("saving snapshot: %w", err)
		}
		if err := reg.Save(f); err != nil {
			f.Close()
			return fmt.Errorf("saving snapshot: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "skyserve: catalogue saved to %s (%d services)\n", snapshot, reg.Len())
	}
	return nil
}

// bootRegistry picks the data source by precedence: snapshot file (if it
// exists), then seed CSV, then synthetic data.
func bootRegistry(ctx context.Context, scheme partition.Scheme, seedN, seedD int, seedFile string, header bool, snapshot string) (*registry.Registry, error) {
	opts := driver.Options{Scheme: scheme}
	if snapshot != "" {
		if f, err := os.Open(snapshot); err == nil {
			defer f.Close()
			reg, err := registry.Load(ctx, f, opts)
			if err != nil {
				return nil, fmt.Errorf("loading snapshot %s: %w", snapshot, err)
			}
			fmt.Fprintf(os.Stderr, "skyserve: restored catalogue from %s\n", snapshot)
			return reg, nil
		}
	}
	var data skymr.Set
	if seedFile != "" {
		f, err := os.Open(seedFile)
		if err != nil {
			return nil, err
		}
		data, _, err = skymr.ReadCSV(f, header)
		f.Close()
		if err != nil {
			return nil, err
		}
	} else {
		data = skymr.GenerateQWS(2012, seedN, seedD)
	}
	seeds := make([]registry.Service, len(data))
	for i, p := range data {
		seeds[i] = registry.Service{Name: fmt.Sprintf("seed-%06d", i), QoS: p}
	}
	return registry.New(ctx, seeds, opts)
}
