package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	skymr "repro"
	"repro/internal/driver"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/registry"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// runTraced measures the per-layer metrics. It is a separate run from the
// timed one: end-to-end metrics are always measured with tracing off.
//
// It does, on the workload's own input: a staged replay of one job on one
// goroutine, layer by layer (replay.go); one real Workers:1 job; interleaved
// real 2-worker jobs — plain, inside harness spans with allocation and
// dominance-test brackets, and with telemetry attached; cluster jobs beside
// the in-process ones; one MR-Dim, MR-Grid and MR-Angle job through
// skymr.Compute; index and registry probes; untraced serve rounds on two
// clients; and one serve round on a single client, so that each request's
// path is attributed exactly.
func runTraced(c runConfig) (*report, error) {
	rep := newReport(c.w.Name, true, c.quick, c.seed)
	tmp, err := os.MkdirTemp(c.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e, err := setUp(c.w, c.seed, tmp, true)
	if err != nil {
		return nil, err
	}
	defer e.close()
	ref, err := e.reference()
	if err != nil {
		return nil, err
	}
	want := checksumOf(ref)
	verify := func(what string, sky points.Set, err error) {
		if err == nil && checksumOf(sky) != want {
			err = fmt.Errorf("skyline of %d points differs from the SFS reference of %d", len(sky), len(ref))
		}
		rep.op(what, err)
	}
	n := float64(c.w.N)
	ctx := context.Background()
	tr := newTracer()

	// (a) Staged replay.
	layerSelf, err := e.replay(rep, tr, verify)
	if err != nil {
		return nil, fmt.Errorf("staged replay: %w", err)
	}

	// (b) One real single-worker job: the baseline the replay is held to.
	var serial *job
	tr.do(0, "job-serial", layerBench, "job workers=1", func(int) { serial, err = e.runJob(ctx, 1) })
	if err != nil {
		return nil, fmt.Errorf("serial job: %w", err)
	}
	verify("serial job", serial.sky, nil)
	rep.set("driver.job_serial_s", serial.wall)
	explained := 0.0
	for layer, s := range layerSelf {
		if layer != layerBench {
			explained += s
		}
	}
	rep.set("trace.coverage", explained/serial.wall)
	rep.set("mapreduce.engine_overhead_s", serial.wall-explained)

	// (c) Real 2-worker jobs, interleaved so that drift hits every kind
	// alike: plain on the workload's path, the same inside a harness span
	// with the count brackets, plain in-process, in-process with telemetry.
	minJ, _ := c.minimums()
	pairs := min(minJ, 3)
	var plain, spanned, inproc, withTele []float64
	var pathJobs, inprocJobs []*job
	var mallocs, allocBytes, domTests []float64
	for i := 0; i < pairs; i++ {
		j, err := e.runJob(ctx, engineWorkers)
		verify(fmt.Sprintf("plain job %d", i), skyOf(j), err)
		if err == nil {
			plain = append(plain, j.wall)
		}

		var m0, m1 runtime.MemStats
		var spannedWall float64
		spannedWall = tr.call(0, fmt.Sprintf("job-%d", i), layerBench, "job workers=2", func() {
			runtime.ReadMemStats(&m0)
			d0 := skyline.DominanceTests()
			j, err = e.runJob(ctx, engineWorkers)
			domTests = append(domTests, float64(skyline.DominanceTests()-d0)/n)
			runtime.ReadMemStats(&m1)
		})
		verify(fmt.Sprintf("spanned job %d", i), skyOf(j), err)
		if err == nil {
			spanned = append(spanned, spannedWall)
			pathJobs = append(pathJobs, j)
			mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs)/n)
			allocBytes = append(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
		}

		j, err = inprocJob(ctx, e.data, driverOptions(engineWorkers))
		verify(fmt.Sprintf("in-process job %d", i), skyOf(j), err)
		if err == nil {
			inproc = append(inproc, j.wall)
			inprocJobs = append(inprocJobs, j)
		}

		opts := driverOptions(engineWorkers)
		opts.Metrics = telemetry.NewRegistry()
		j, err = inprocJob(telemetry.WithTracer(ctx, telemetry.NewTracer()), e.data, opts)
		verify(fmt.Sprintf("telemetry job %d", i), skyOf(j), err)
		if err == nil {
			withTele = append(withTele, j.wall)
		}
	}
	if len(plain) == 0 || len(spanned) == 0 || len(inproc) == 0 || len(withTele) == 0 {
		return rep, fmt.Errorf("a kind of traced job never succeeded: %v", rep.Failures)
	}
	rep.set("driver.parallel_speedup", serial.wall/median(plain))
	rep.set("trace.overhead_ratio", median(spanned)/median(plain))
	rep.set("telemetry.overhead_ratio", median(withTele)/median(inproc))
	rep.setMedian("driver.allocs_per_point", mallocs)
	rep.setMedian("driver.alloc_bytes_per_point", allocBytes)
	rep.setMedian("skyline.dominance_tests_per_point", domTests)

	// driver.* phase rows come from the workload's own path where that is
	// the driver's (inproc, stream), else from the in-process jobs.
	statJobs := pathJobs
	if statJobs[0].stats == nil {
		statJobs = inprocJobs
	}
	phase := func(name string, f func(*driver.Stats) time.Duration) {
		var xs []float64
		for _, j := range statJobs {
			xs = append(xs, f(j.stats).Seconds())
		}
		rep.setMedian(name, xs)
	}
	phase("driver.map_s", func(s *driver.Stats) time.Duration { return s.Timing.Map })
	phase("driver.shuffle_s", func(s *driver.Stats) time.Duration { return s.Timing.Shuffle })
	phase("driver.reduce_s", func(s *driver.Stats) time.Duration { return s.Timing.Reduce })
	phase("driver.partition_job_s", func(s *driver.Stats) time.Duration { return s.PartitionJob.Total })
	phase("driver.merge_job_s", func(s *driver.Stats) time.Duration { return s.MergeJob.Total })
	st := statJobs[0].stats
	rep.set("driver.merge_rounds", float64(st.MergeRounds))
	rep.set("driver.merge_passes", float64(st.MergePasses))
	rep.set("driver.reducer_peak_bytes", float64(st.ReducerPeakBytes))
	rep.set("mapreduce.shuffle_records", float64(st.Counters["mr.shuffle.records"]))
	rep.set("mapreduce.combine_keep_ratio", ratio(float64(st.Counters["mr.combine.records.out"]), float64(st.Counters["mr.combine.records.in"])))
	last := pathJobs[len(pathJobs)-1]
	rep.set("partition.local_optimality", last.optimality())
	rep.set("partition.local_total_per_sky", float64(last.localTotal())/float64(len(last.sky)))

	// (d) Cluster jobs on the same data: the workload's own cluster, or a
	// temporary one.
	clusterJobs := pathJobs
	if e.cl == nil {
		cl, err := startCluster(c.w.N)
		if err != nil {
			return nil, err
		}
		clusterJobs = nil
		for i := 0; i < pairs; i++ {
			var j *job
			tr.do(0, fmt.Sprintf("cluster-job-%d", i), layerBench, "skyjob.ComputeSpec", func(int) {
				j, err = clusterJob(ctx, cl, e.data)
			})
			verify(fmt.Sprintf("cluster job %d", i), skyOf(j), err)
			if err == nil && i > 0 { // the first job warms the connections
				clusterJobs = append(clusterJobs, j)
			}
		}
		cl.close()
		if len(clusterJobs) == 0 {
			return rep, fmt.Errorf("no cluster job succeeded: %v", rep.Failures)
		}
	}
	var cwall, cmap, cred, cbytes, ctasks, cretry, cfail []float64
	for _, j := range clusterJobs {
		cwall = append(cwall, j.wall)
		cmap = append(cmap, j.cluster.MapTime.PartitionJob+j.cluster.MapTime.MergeJob)
		cred = append(cred, j.cluster.ReduceTime.PartitionJob+j.cluster.ReduceTime.MergeJob)
		cbytes = append(cbytes, float64(j.shuffleBytes))
		ctasks = append(ctasks, float64(j.tasks))
		cretry = append(cretry, float64(j.retries))
		cfail = append(cfail, float64(j.failures))
	}
	rep.setMedian("skyjob.map_s", cmap)
	rep.setMedian("skyjob.reduce_s", cred)
	rep.setMedian("rpcmr.shuffle_bytes", cbytes)
	rep.setMedian("rpcmr.tasks", ctasks)
	rep.set("rpcmr.task_retries", sum(cretry))
	rep.set("rpcmr.worker_failures", sum(cfail))
	rep.set("rpcmr.overhead_ratio", median(cwall)/median(inproc))

	// (e) The paper's Fig. 5/7 ordering, through the public root API.
	for _, m := range []struct {
		key    string
		method skymr.Method
	}{{"dim", skymr.Dim}, {"grid", skymr.Grid}, {"angle", skymr.Angle}} {
		var res *skymr.Result
		wall := tr.call(0, "job-"+m.key, layerBench, "skymr.Compute "+m.method.String(), func() {
			res, err = skymr.Compute(ctx, e.data, skymr.Options{Method: m.method, Nodes: nodes, Workers: engineWorkers})
		})
		if err != nil {
			rep.op("skymr.Compute "+m.key, err)
			return rep, fmt.Errorf("skymr.Compute %s: %w", m.key, err)
		}
		verify("skymr.Compute "+m.key, res.Skyline, nil)
		if m.key != "angle" {
			rep.set("partition."+m.key+".job_s", wall)
		}
		rep.set("partition."+m.key+".local_total", float64(res.LocalSkylineTotal()))
	}

	// (f) Serving: index probe, registry probe, untraced rounds on 2 clients
	// for the serve.* rows, then one traced round on 1 client.
	if err := e.indexProbe(rep, tr); err != nil {
		return nil, err
	}
	if err := e.registryProbe(rep, tr); err != nil {
		return nil, err
	}
	_, minR := c.minimums()
	rounds, err := e.serveSection(rep, 0, minR)
	if err != nil {
		return nil, err
	}
	serveMetrics(rounds, rep.setMedian)
	reg, err := newRegistry(e.seeds)
	if err != nil {
		return nil, err
	}
	defer reg.Close()
	pt := &pathTrace{tr: tr, pc: countersOf(reg), stats: map[string]*requestStats{}}
	r := e.serveRound(rep, reg, len(rounds), 1, pt)
	rep.set("registry.cache_hit_ratio", ratio(float64(r.hits), float64(r.hits+r.misses)))
	rep.set("registry.cache_evictions", float64(r.evictions))
	rep.set("registry.evictions_per_publish", ratio(float64(r.evictions), float64(r.mixedPublishes)))
	rep.set("registry.path_cached", float64(r.cached))
	rep.set("registry.path_merge", float64(r.merge))
	rep.set("registry.path_update", float64(r.update))
	rep.set("registry.publish_p50_us", nsQuantile(r.mixed.publishNS, 0.50)/1e3)
	rep.set("registry.publish_p99_ms", nsQuantile(r.mixed.publishNS, 0.99)/1e6)

	spans := tr.snapshot()
	rep.set("trace.spans", float64(len(spans)))
	tf := traceFile{Workload: c.w.Name, Provenance: rep.Provenance, LayerSelf: layerSelf,
		Requests: map[string]requestStats{}, Spans: spans}
	for path, st := range pt.stats {
		tf.Requests[path] = *st
	}
	if err := writeJSON(filepath.Join(c.outDir, "trace-"+c.w.Name+".json"), tf); err != nil {
		return nil, err
	}
	return rep, nil
}

func skyOf(j *job) points.Set {
	if j == nil {
		return nil
	}
	return j.sky
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// indexProbe measures the serving index below the registry: build, adds
// through the group-commit pipeline under `clients` concurrent publishers
// (as registry.New configures it), and the snapshot read. Registry does
// not export its index, so registry.publishes_per_epoch is taken here.
func (e *env) indexProbe(rep *report, tr *tracer) error {
	ctx := context.Background()
	var ix *driver.Index
	var err error
	rep.set("driver.index_build_s", tr.call(0, "index-probe", "driver", "BuildIndex", func() {
		ix, err = driver.BuildIndex(ctx, e.seeds, driver.Options{Scheme: partition.Angular})
	}))
	if err != nil {
		return err
	}
	if err := ix.StartPipeline(0, 0); err != nil {
		return err
	}
	defer ix.Close()
	perClient := max(e.w.Serve.Pubs/4, 10)
	adds := generate(e.w.Kind, e.seed+2, clients*perClient, e.w.D)
	epoch0 := ix.Epoch()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	wall := tr.call(0, "index-probe", "driver", "Index.Add", func() {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, p := range adds[c*perClient : (c+1)*perClient] {
					if _, _, err := ix.Add(p); err != nil {
						errs[c] = err
						return
					}
				}
			}()
		}
		wg.Wait()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Each client waits for its reply, so the mean latency one client saw
	// is the phase wall over its own adds.
	rep.set("driver.index_add_us", wall*1e6/float64(perClient))
	rep.set("registry.publishes_per_epoch", ratio(float64(len(adds)), float64(ix.Epoch()-epoch0)))
	const views = 1 << 20
	size := 0
	wall = tr.call(0, "index-probe", "driver", "View.Global", func() {
		for i := 0; i < views; i++ {
			size += len(ix.View().Global())
		}
	})
	if size == 0 {
		return fmt.Errorf("index view is empty")
	}
	rep.set("driver.view_ns", wall*1e9/views)
	return nil
}

// registryProbe prices the two read paths on a fresh registry: the warm
// GET /skyline and the first read of a ceiling the cache has never seen.
func (e *env) registryProbe(rep *report, tr *tracer) error {
	var reg *registry.Registry
	var err error
	rep.set("registry.new_s", tr.call(0, "registry-probe", "registry", "New", func() {
		reg, err = newRegistry(e.seeds)
	}))
	if err != nil {
		return err
	}
	defer reg.Close()
	h := reg.Handler()
	w := newDiscard()
	bad := 0
	get := func(url string) {
		w.status = 0
		h.ServeHTTP(w, getRequest(url))
		if w.status >= 400 {
			bad++
		}
	}
	get("/skyline") // fill
	const warm = 2000
	plain := getRequest("/skyline")
	wall := tr.call(0, "registry-probe", "registry", "GET /skyline warm", func() {
		for i := 0; i < warm; i++ {
			h.ServeHTTP(w, plain)
		}
	})
	if w.status >= 400 {
		bad++
	}
	rep.set("registry.hit_us", wall*1e6/warm)
	fresh := ceilingURLs(e.seeds, ceilings, 32)
	wall = tr.call(0, "registry-probe", "registry", "GET /skyline?max= fresh", func() {
		for _, u := range fresh {
			get(u)
		}
	})
	rep.set("registry.miss_ms", wall*1e3/float64(len(fresh)))
	rep.Attempted += 1 + warm + len(fresh)
	if bad > 0 {
		rep.fail(bad, fmt.Sprintf("registry probe: %d responses with status >= 400", bad))
	}
	return nil
}
