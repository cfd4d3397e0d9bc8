package experiments

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/driver"
	"repro/internal/partition"
	"repro/internal/qws"
	"repro/internal/registry"
)

// missPath builds a /skyline?max= URL whose ceiling admits every QWS point
// but whose signature is unique per key: a guaranteed cache miss that
// still renders the full skyline.
func missPath(d, key int) string {
	vals := make([]string, d)
	for j := range vals {
		vals[j] = "1e9"
	}
	// 'f' format: a 'g'-formatted exponent ("1e+09") would URL-decode its
	// '+' to a space and fail to parse.
	vals[d-1] = strconv.FormatFloat(1e9+float64(key), 'f', 0, 64)
	return "/skyline?max=" + strings.Join(vals, ",")
}

// serve measures the serving core. The HTTP read path with per-query
// attribution on versus off is gated at 1.05× (the explain row, the
// deliberately expensive re-merge, is reported only); concurrent MVCC
// snapshot reads against the RWMutex baseline at 16 goroutines are gated
// at a 5× speedup; batched group-commit publishes against one epoch per
// point, and the cache's hit path against a forced miss, are reported.
func serve(ctx context.Context, sc Scale) ([]Row, error) {
	const d, goroutines = 6, 16
	requests, readOps, lockOps, publishes := 2000, 1<<20, 1<<16, 4000
	if !sc.Gate {
		requests, readOps, lockOps, publishes = 500, 1<<17, 1<<13, 1000
	}
	data := qws.Dataset(sc.Seed, sc.ServeN, d)
	opts := driver.Options{Scheme: partition.Angular}
	var r rows
	perOp := func(name string, ops int, wall time.Duration) float64 {
		v := float64(wall.Nanoseconds()) / float64(ops)
		r.add(name+"/ns_per_op", v, "ns")
		return v
	}
	// get times n sequential GETs through a fresh registry's handler (so no
	// arm inherits another's metrics, cache or query log), the path of
	// request i in run k being path(k, i).
	get := func(name string, stats bool, n int, path func(k, i int) string) (float64, error) {
		services := make([]registry.Service, len(data))
		for i, p := range data {
			services[i] = registry.Service{Name: fmt.Sprintf("svc-%05d", i), QoS: p}
		}
		reg, err := registry.New(ctx, services, opts)
		if err != nil {
			return 0, err
		}
		defer reg.Close()
		reg.EnableQueryStats(stats)
		h, k := reg.Handler(), 0
		wall, err := best(sc.Runs, func() error {
			for i := 0; i < n; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path(k, i), nil))
				if w.Code != http.StatusOK {
					return fmt.Errorf("GET %s: %d", path(k, i), w.Code)
				}
			}
			k++
			return nil
		})
		return perOp(name, n, wall), err
	}
	plain := func(p string) func(int, int) string { return func(int, int) string { return p } }
	on, err := get("read_stats", true, requests, plain("/skyline"))
	if err != nil {
		return nil, err
	}
	off, err := get("read_nostats", false, requests, plain("/skyline"))
	if err != nil {
		return nil, err
	}
	if _, err := get("explain", true, max(requests/10, 50), plain("/skyline?explain=1")); err != nil {
		return nil, err
	}
	// read_stats is the cache's hit path (one signature, repeated); the
	// miss path pays the full fill (snapshot filter + service match +
	// encode) with a fresh signature per request, sampled like the explain
	// row rather than hammered.
	if _, err := get("cache_miss", true, max(requests/10, 50), func(k, i int) string { return missPath(d, k*1_000_000+i) }); err != nil {
		return nil, err
	}

	// Concurrent reads of the same consistent skyline. The baseline is the
	// pre-MVCC design: the skyline behind a sync.RWMutex, and because
	// writers mutated it in place, every reader takes the read lock and
	// clones before releasing it. An MVCC epoch is immutable, so its read
	// is one atomic pointer load with no copy.
	ix, err := driver.BuildIndex(ctx, data, opts)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	var mu sync.RWMutex
	locked := ix.View().Global().Clone()
	conc := func(name string, ops int, op func() int) float64 {
		per := max(ops/goroutines, 1)
		sinks := make([]int, goroutines) // accumulated so the reads cannot be elided
		// The reads cannot fail, so neither can best.
		wall, _ := best(sc.Runs, func() error {
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						sinks[g] += op()
					}
				}(g)
			}
			wg.Wait()
			return nil
		})
		return perOp(name, per*goroutines, wall)
	}
	snapshot := conc("snapshot_read", readOps, func() int { return len(ix.View().Global()) })
	rwmutex := conc("rwmutex_read", lockOps, func() int {
		mu.RLock()
		defer mu.RUnlock()
		return len(locked.Clone())
	})

	// The same concurrent publish stream, synchronous (every Add installs
	// its own epoch and waits for it) and batched (AddAsync, one Barrier at
	// the end: the coalescing worker commits whole queue drains). The
	// stream improves — each point a QWS sample scaled progressively below
	// the incumbents — so many points enter the skyline and force a shard
	// rebuild and an epoch: the work group commit amortizes. Each run
	// publishes into a fresh index, built untimed.
	pub := qws.Dataset(sc.Seed+1, publishes, d)
	for i, p := range pub {
		for j := range p {
			p[j] *= 0.9 - 0.5*float64(i)/float64(len(pub))
		}
	}
	publish := func(name string, batched bool) (float64, error) {
		fastest := time.Duration(1<<63 - 1)
		for run := 0; run < max(sc.Runs, 1); run++ {
			ix, err := driver.BuildIndex(ctx, data, opts)
			if err != nil {
				return 0, err
			}
			if batched {
				if err := ix.StartPipeline(0, 0); err != nil {
					ix.Close()
					return 0, err
				}
			}
			errs := make([]error, goroutines)
			start := time.Now()
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < len(pub) && errs[g] == nil; i += goroutines {
						if batched {
							ix.AddAsync(pub[i])
						} else {
							_, _, errs[g] = ix.Add(pub[i])
						}
					}
				}(g)
			}
			wg.Wait()
			if batched {
				ix.Barrier()
			}
			fastest = min(fastest, time.Since(start))
			ix.Close()
			for _, err := range errs {
				if err != nil {
					return 0, err
				}
			}
		}
		return perOp(name, len(pub), fastest), nil
	}
	batched, err := publish("publish_batch", true)
	if err != nil {
		return nil, err
	}
	synced, err := publish("publish_sync", false)
	if err != nil {
		return nil, err
	}
	r.gate(sc.Gate, "ratio/attribution_overhead", ratio(on, off), "x", "lower", 1.05)
	r.gate(sc.Gate, "ratio/snapshot_speedup", ratio(rwmutex, snapshot), "x", "higher", 5)
	r.add("ratio/publish_speedup", ratio(synced, batched), "x")
	return r, nil
}
