package main

// The catalogue is the harness's own registry of metric and workload
// names. BENCHMARK.json carries the same names; the smoke test fails when
// the two drift.

// metric names one reported number.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
	Doc    string
}

// endToEnd lists what a user of the system sees and this box can resolve:
// every workload reports every one of them (the driver contract), and each
// must repeat, between runs on different seeds, within its bound — which is
// at most 0.25. Serving speed is a user-visible number too, but on this
// box it moves by 25–48% between runs of the same code, so it is reported
// under serve.* below instead of being gated here; see README.md "Noise".
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25, "median of the run's set-ups: input generation or chunk recipe, cluster start and worker registration, registry.New where the run serves; excludes verification"},
	{"job_s", "s", "lower", 0.25, "median wall time of one complete batch job: call to verified global skyline"},
	{"shuffle_bytes_per_point", "B/point", "lower", 0.20, "shuffle payload bytes of one job / n"},
	{"peak_rss_mb", "MB", "lower", 0.25, "median over the timed jobs (on serve_mixed the serve rounds, where those need more) of VmHWM over the one operation, reset before it"},
}

// perLayer lists the single-layer numbers of the traced run, named
// <layer>.<what>. They carry no bound: they explain an end-to-end move,
// they do not gate one.
var perLayer = []metric{
	// points: point and frame codecs.
	{"points.encode_ns_per_point", "ns/point", "lower", 0, "points.Encode over the input"},
	{"points.decode_ns_per_point", "ns/point", "lower", 0, "points.DecodeInto over the encoded input"},
	{"points.frame_v1_encode_ns_per_point", "ns/point", "lower", 0, "AppendFrameCodec(FrameV1) on the partition blocks"},
	{"points.frame_v1_decode_ns_per_point", "ns/point", "lower", 0, "DecodeFrame of the v1 frames"},
	{"points.frame_v2_encode_ns_per_point", "ns/point", "lower", 0, "AppendFrameCodec(FrameV2) on the partition blocks"},
	{"points.frame_v2_decode_ns_per_point", "ns/point", "lower", 0, "DecodeFrame of the v2 frames"},
	{"points.frame_v2_ratio", "ratio", "lower", 0, "v2 frame bytes / v1 frame bytes"},
	// hyper: the angular transform.
	{"hyper.angles_ns_per_point", "ns/point", "lower", 0, "hyper.AnglesOf over the input"},
	// partition.
	{"partition.fit_s", "s", "lower", 0, "partition.New(Angular, data, 8)"},
	{"partition.assign_ns_per_point", "ns/point", "lower", 0, "Assign over all n, one goroutine"},
	{"partition.imbalance", "ratio", "lower", 0, "ImbalanceRatio of the angular histogram (max/mean)"},
	{"partition.local_optimality", "ratio", "higher", 0, "paper Eq. 5: share of local skyline points that are global"},
	{"partition.local_total_per_sky", "ratio", "lower", 0, "local skyline total / |SKY|: merge volume per result point"},
	// skyline kernels.
	{"skyline.local_s", "s", "lower", 0, "sum of BlockBNL over the partition blocks"},
	{"skyline.local_max_s", "s", "lower", 0, "slowest partition's BlockBNL"},
	{"skyline.merge_s", "s", "lower", 0, "ParallelBlock on the union of local skylines, 2 workers"},
	{"skyline.dominance_tests_per_point", "1/point", "lower", 0, "DominanceTests() delta over one 2-worker job / n"},
	{"skyline.budget_fold_s", "s", "lower", 0, "BudgetedFold over the merge candidates at the 128 KiB budget"},
	{"skyline.budget_fold_passes", "count", "lower", 0, "passes that fold needed"},
	{"skyline.budget_fold_peak_bytes", "B", "lower", 0, "that fold's peak working set"},
	// sequencefile: spill I/O.
	{"sequencefile.write_mb_per_s", "MB/s", "higher", 0, "the shuffle frame streams written as records to a temp file"},
	{"sequencefile.read_mb_per_s", "MB/s", "higher", 0, "and read back"},
	// mapreduce: in-process engine.
	{"mapreduce.build_frames_s", "s", "lower", 0, "BuildFrames without combiner (partition ids precomputed)"},
	{"mapreduce.build_frames_combined_s", "s", "lower", 0, "BuildFrames with the local-skyline combiner"},
	{"mapreduce.assemble_s", "s", "lower", 0, "AssembleFrames of the shuffle streams"},
	{"mapreduce.reduce_frames_s", "s", "lower", 0, "ReduceFrames with the local-skyline reducer"},
	{"mapreduce.shuffle_records", "count", "lower", 0, "mr.shuffle.records of one job"},
	{"mapreduce.combine_keep_ratio", "ratio", "lower", 0, "mr.combine.records.out / .in of one job"},
	{"mapreduce.engine_overhead_s", "s", "lower", 0, "driver.job_serial_s minus the staged replay's layer self times"},
	// driver: the two-job pipeline and the serving index.
	{"driver.map_s", "s", "lower", 0, "median map phase of the traced jobs"},
	{"driver.shuffle_s", "s", "lower", 0, "median shuffle phase"},
	{"driver.reduce_s", "s", "lower", 0, "median reduce phase"},
	{"driver.partition_job_s", "s", "lower", 0, "median partitioning job"},
	{"driver.merge_job_s", "s", "lower", 0, "median merging job"},
	{"driver.job_serial_s", "s", "lower", 0, "one Workers:1 job, the single-thread baseline"},
	{"driver.parallel_speedup", "ratio", "higher", 0, "job_serial_s / 2-worker job wall"},
	{"driver.allocs_per_point", "1/point", "lower", 0, "MemStats.Mallocs delta over one job / n"},
	{"driver.alloc_bytes_per_point", "B/point", "lower", 0, "MemStats.TotalAlloc delta over one job / n"},
	{"driver.merge_rounds", "count", "lower", 0, "Stats.MergeRounds"},
	{"driver.merge_passes", "count", "lower", 0, "Stats.MergePasses"},
	{"driver.reducer_peak_bytes", "B", "lower", 0, "Stats.ReducerPeakBytes"},
	{"driver.index_build_s", "s", "lower", 0, "BuildIndex on the serve seeds"},
	{"driver.index_add_us", "us", "lower", 0, "mean Index.Add with the publish pipeline running"},
	{"driver.view_ns", "ns", "lower", 0, "mean View().Global()"},
	// skyjob + rpcmr: cluster jobs over loopback TCP.
	{"skyjob.map_s", "s", "lower", 0, "Result.MapTime, both jobs"},
	{"skyjob.reduce_s", "s", "lower", 0, "Result.ReduceTime, both jobs"},
	{"rpcmr.shuffle_bytes", "B", "lower", 0, "rpcmr_shuffle_bytes_total delta of one cluster job"},
	{"rpcmr.tasks", "count", "lower", 0, "rpcmr_tasks_done_total delta"},
	{"rpcmr.task_retries", "count", "lower", 0, "Status().TaskRetries delta"},
	{"rpcmr.worker_failures", "count", "lower", 0, "Status().WorkerFailures delta"},
	{"rpcmr.overhead_ratio", "ratio", "lower", 0, "cluster job wall / in-process job wall, same data, same process"},
	// serve: what a registry client sees, 2 closed-loop clients, tracing off.
	{"serve.ops_per_s", "ops/s", "higher", 0, "mixed-phase ops / mixed-phase wall, median over rounds"},
	{"serve.read_p50_us", "us", "lower", 0, "median read latency in the mixed phase (the cached path), median over rounds"},
	{"serve.read_p99_ms", "ms", "lower", 0, "99th-percentile read latency in the mixed phase, median over rounds (prices a miss)"},
	{"serve.publishes_per_s", "1/s", "higher", 0, "ingest-phase publishes / ingest-phase wall, median over rounds"},
	// registry: HTTP serving and the query cache.
	{"registry.new_s", "s", "lower", 0, "registry.New on the serve seeds"},
	{"registry.cache_hit_ratio", "ratio", "higher", 0, "cache hits / (hits + misses), mixed phase"},
	{"registry.cache_evictions", "count", "lower", 0, "registry_cache_evictions_total delta, mixed phase"},
	{"registry.evictions_per_publish", "ratio", "lower", 0, "evictions / publishes, mixed phase"},
	{"registry.path_cached", "count", "higher", 0, "registry_query_path_total{cached} delta, mixed phase"},
	{"registry.path_merge", "count", "lower", 0, "registry_query_path_total{merge} delta, mixed phase"},
	{"registry.path_update", "count", "lower", 0, "registry_query_path_total{update} delta, mixed phase"},
	{"registry.hit_us", "us", "lower", 0, "mean warm GET /skyline"},
	{"registry.miss_ms", "ms", "lower", 0, "mean first read of a fresh ceiling"},
	{"registry.publish_p50_us", "us", "lower", 0, "median publish latency, mixed phase"},
	{"registry.publish_p99_ms", "ms", "lower", 0, "99th-percentile publish latency, mixed phase"},
	{"registry.publishes_per_epoch", "ratio", "higher", 0, "publishes / epochs installed under 2 concurrent publishers (group-commit width)"},
	// telemetry: what instrumentation costs.
	{"telemetry.overhead_ratio", "ratio", "lower", 0, "job with Options.Metrics and a context tracer / plain job, interleaved"},
	// trace: how much of a job the rows above explain.
	{"trace.coverage", "ratio", "higher", 0, "staged replay's layer self seconds / driver.job_serial_s"},
	{"trace.overhead_ratio", "ratio", "lower", 0, "job wall inside harness spans / plain job wall, same process"},
	{"trace.spans", "count", "lower", 0, "spans recorded by the traced run"},
	// paper shape: Fig. 5/7 ordering of the three partitioning methods.
	{"partition.dim.job_s", "s", "lower", 0, "one MR-Dim job via skymr.Compute"},
	{"partition.grid.job_s", "s", "lower", 0, "one MR-Grid job via skymr.Compute"},
	{"partition.dim.local_total", "count", "lower", 0, "MR-Dim local skyline total"},
	{"partition.grid.local_total", "count", "lower", 0, "MR-Grid local skyline total"},
	{"partition.angle.local_total", "count", "lower", 0, "MR-Angle local skyline total"},
}

// Fixed load constants: sized for a 2-core box and deliberately not read
// from the machine, so numbers from different machines stay comparable.
const (
	nodes          = 4 // modelled cluster size; partitions = 2 × nodes
	partitions     = 2 * nodes
	engineWorkers  = 2
	clusterWorkers = 2
	clients        = 2
	reducerBudget  = 128 << 10 // out-of-core reducer window, bytes
	clusterSplits  = 16        // map tasks per cluster job
)

// Path selects how a workload's batch job runs.
const (
	pathInproc  = "inproc"  // driver.Compute on a materialised set
	pathStream  = "stream"  // driver.ComputeStream over a chunk recipe
	pathCluster = "cluster" // skyjob.ComputeSpec over loopback rpcmr
)

// workload is one named set of inputs.
type workload struct {
	Name, Why string
	Kind      string // generator: "qws", "corr" or "ind"
	N, D      int
	Path      string
	// BatchShare is the share of a timed run's -seconds spent on batch
	// jobs; the rest goes to serve rounds. At 1 the timed run does not serve.
	BatchShare float64
	// Serve sizes the serve rounds: of the timed run where BatchShare < 1,
	// and of every workload's traced run.
	Serve serveSize
}

// serveSize fixes one serve round. Op counts are fixed, not durations, so
// the number of publishes and evictions in a round repeats exactly.
type serveSize struct {
	Seeds int // seed services in the registry
	Ops   int // mixed-phase ops per client
	Pubs  int // ingest-phase publishes per client
}

// Serve sizes are per workload because one request costs 50× more on
// qws_d10's seeds (a third of them are skyline, every miss re-renders
// them) than on corr_d6's (the skyline is a handful of points). Rounds are
// short — a fraction of a second — so that a run holds many of them and
// the median over rounds rides out both the machine's bursts and the rare
// round in which an unusual publish evicts the whole cache.
var workloads = []workload{
	{"qws_d10", "paper's headline configuration: skyline is ~17% of the input, so local-skyline and merge kernels are nearly all of the wall",
		"qws", 50000, 10, pathInproc, 1, serveSize{Seeds: 1000, Ops: 2500, Pubs: 2500}},
	{"corr_d6", "skyline is ~300 points so kernels idle: time is encode/decode, angular Assign and frame build; a kernel change must not move it",
		"corr", 2000000, 6, pathInproc, 1, serveSize{Seeds: 5000, Ops: 10000, Pubs: 10000}},
	{"ind_d6", "balanced map side / reduce side / encode+fit, so it arbitrates between qws_d10 and corr_d6",
		"ind", 1000000, 6, pathInproc, 1, serveSize{Seeds: 1000, Ops: 5000, Pubs: 5000}},
	{"stream_ind_d6", "out-of-core path: chunk-read map tasks, budgeted fold, codec v2, sequencefile spills, multi-round merge; memory is the point",
		"ind", 1000000, 6, pathStream, 1, serveSize{Seeds: 1000, Ops: 5000, Pubs: 5000}},
	{"cluster_ind_d6", "ind_d6's data through rpcmr over loopback TCP and skyjob, so its distance from ind_d6 is the transport cost",
		"ind", 1000000, 6, pathCluster, 1, serveSize{Seeds: 1000, Ops: 5000, Pubs: 5000}},
	{"serve_mixed", "the registry under writes beside reads (publishes evict cached bodies, forcing merge-path misses): its set-up, memory and exactness; plus a small catalogue job",
		"ind", 200000, 6, pathInproc, 0.3, serveSize{Seeds: 2000, Ops: 10000, Pubs: 10000}},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// quick shrinks a workload for the smoke test: n and seeds ÷ 50, op counts ÷ 20.
// Quick numbers are never written to BENCHMARK.json.
func (w workload) quick() workload {
	w.N /= 50
	w.Serve = serveSize{Seeds: w.Serve.Seeds / 50, Ops: w.Serve.Ops / 20, Pubs: w.Serve.Pubs / 20}
	return w
}

// benchmarkJSON is the root BENCHMARK.json, which the harness can print
// from its own catalogue (-catalogue) so that the two cannot drift.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is how long one driver run measures (-seconds).
const runSeconds = 15

func catalogueJSON() benchmarkJSON {
	doc := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, jsonWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, jsonMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, jsonMetric{m.Name, m.Unit, m.Better, 0})
	}
	return doc
}
