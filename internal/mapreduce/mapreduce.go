// Package mapreduce is a from-scratch, in-process MapReduce engine — the
// stand-in for Hadoop in this reproduction. It executes a job as the
// classic phase pipeline
//
//	split → map → (combine) → shuffle → reduce
//
// over a pool of worker goroutines ("slave servers"), with per-phase
// wall-clock timing (the paper's Figure 6 breakdown), user and framework
// counters, task retry with configurable attempts, optional spill of
// intermediate data to disk in the sequencefile format, and context
// cancellation.
//
// Records, keys and values are opaque byte strings, as in Hadoop streaming;
// the skyline layer (package driver) provides the point codecs.
package mapreduce

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/points"
	"repro/internal/telemetry"
)

// Pair is one key-value record flowing between phases.
type Pair struct {
	Key   string
	Value []byte
}

// Emit is the callback mappers, combiners and reducers use to produce
// output pairs. An Emit passed to user code is only valid for the duration
// of that call and must not be retained.
type Emit func(key string, value []byte)

// Mapper transforms one input record into zero or more key-value pairs.
// A Mapper must be safe for concurrent use by multiple map tasks.
type Mapper interface {
	Map(record []byte, emit Emit) error
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(record []byte, emit Emit) error

// Map implements Mapper.
func (f MapperFunc) Map(record []byte, emit Emit) error { return f(record, emit) }

// Reducer folds all values of one key into zero or more output pairs.
// A Reducer must be safe for concurrent use by multiple reduce tasks. The
// same interface is used for combiners, which run after each map task on
// that task's local output (the paper's "local skyline computation" step
// runs as a combiner).
type Reducer interface {
	Reduce(key string, values [][]byte, emit Emit) error
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key string, values [][]byte, emit Emit) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values [][]byte, emit Emit) error {
	return f(key, values, emit)
}

// Config controls job execution.
type Config struct {
	// Name labels the job in errors and spill file names.
	Name string
	// Workers is the number of concurrent map (and reduce) worker
	// goroutines — the cluster size of the simulated deployment.
	// Defaults to GOMAXPROCS.
	Workers int
	// Reducers is the number of reduce partitions. Defaults to Workers.
	Reducers int
	// SplitSize is the number of input records per map task. Defaults to
	// ceil(len(input)/ (4*Workers)) so each worker sees a few tasks.
	SplitSize int
	// Combiner, when non-nil, runs on each map task's output per key
	// before the shuffle, cutting shuffle volume — the paper's middle
	// "local skyline computation" process.
	Combiner Reducer
	// MaxAttempts is how many times a failed map or reduce task is retried
	// before the job fails. Defaults to 1 (no retry).
	MaxAttempts int
	// SpillDir, when non-empty, makes map tasks write their partitioned
	// output to sequence files under this directory instead of keeping it
	// on the heap; the reduce phase streams a k-way merge over the sorted
	// runs. The directory must exist.
	SpillDir string
	// CompressSpill DEFLATE-compresses spill runs (sequencefile v2) —
	// cheaper I/O for cold spills at some CPU cost. Only meaningful with
	// SpillDir.
	CompressSpill bool
	// Codec selects the frame wire codec for sealed shuffle and spill
	// frames on the frame path (RunFrames and friends). The zero value is
	// the raw v1 codec; points.FrameAuto enables the bit-packed v2
	// encoding wherever it is smaller. Pair-path jobs ignore it.
	Codec points.FrameCodec
	// ReducerBudgetBytes is the working-memory target for one streaming
	// reduce task (a FrameJob with a Folder): the budget handed to
	// the task's frame folds, and the reference the reported peak is
	// judged against. 0 means unbudgeted. The engine records the peak —
	// FrameResult.ReducerPeakBytes — rather than killing tasks, so an
	// over-budget fold is visible, not fatal.
	ReducerBudgetBytes int64
	// Trace, when non-nil, receives job/phase/task lifecycle events.
	Trace EventSink
	// Metrics, when non-nil, receives the job's framework counters and
	// per-phase latency histograms under the mr_* namespace after each
	// run. Nil (the default) costs nothing on the hot path.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults(inputLen int) Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Reducers <= 0 {
		c.Reducers = c.Workers
	}
	if c.SplitSize <= 0 {
		c.SplitSize = (inputLen + 4*c.Workers - 1) / (4 * c.Workers)
		if c.SplitSize < 1 {
			c.SplitSize = 1
		}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 1
	}
	if c.Name == "" {
		c.Name = "job"
	}
	return c
}

// Timing is the per-phase wall-clock breakdown of one job.
type Timing struct {
	Map     time.Duration // map + combine (the paper's "Map time")
	Combine time.Duration // portion of Map spent in the combiner
	Shuffle time.Duration
	Reduce  time.Duration
	Total   time.Duration
}

// Add accumulates another job's timing (for multi-job pipelines).
func (t *Timing) Add(o Timing) {
	t.Map += o.Map
	t.Combine += o.Combine
	t.Shuffle += o.Shuffle
	t.Reduce += o.Reduce
	t.Total += o.Total
}

// Result is the outcome of a successful job.
type Result struct {
	// Pairs is the reduce output. Order is deterministic: reduce
	// partitions in index order, keys sorted within each partition,
	// emission order within a key preserved.
	Pairs    []Pair
	Counters *Counters
	Timing   Timing
}

// Counters is a set of named int64 counters, safe for concurrent use.
// The framework maintains "mr.*" counters; user code may add its own via
// the Counters handle threaded through context (see WithCounters) or by
// closing over the struct.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]int64)} }

// Add increments counter name by delta.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the value of counter name (0 if never set).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Framework counter names.
const (
	CounterMapIn      = "mr.map.records.in"
	CounterMapOut     = "mr.map.records.out"
	CounterCombineIn  = "mr.combine.records.in"
	CounterCombineOut = "mr.combine.records.out"
	CounterShuffle    = "mr.shuffle.records"
	// CounterShuffleBytes counts the payload bytes crossing the shuffle —
	// key + value bytes on the classic Pair path, frame bytes (header +
	// coordinates) on the frame path — never the transport envelope (gob
	// framing, RPC headers), so in-process and rpcmr runs, and the
	// paper's Fig. 6 shuffle volumes, compare like-for-like.
	CounterShuffleBytes = "mr.shuffle.bytes"
	CounterReduceIn     = "mr.reduce.records.in"
	CounterReduceOut    = "mr.reduce.records.out"
	CounterGroups       = "mr.reduce.groups"
	CounterMapRetries   = "mr.map.task.retries"
	CounterRedRetries   = "mr.reduce.task.retries"
	CounterSpillBytes   = "mr.spill.bytes"
)

// Run executes a MapReduce job over the input records and returns its
// result. Run blocks until the job completes, fails, or ctx is cancelled.
func Run(ctx context.Context, cfg Config, input [][]byte, mapper Mapper, reducer Reducer) (*Result, error) {
	if mapper == nil || reducer == nil {
		return nil, fmt.Errorf("mapreduce: %s: mapper and reducer must be non-nil", cfg.Name)
	}
	cfg = cfg.withDefaults(len(input))
	counters := NewCounters()
	start := time.Now()
	cfg.emit("job-start", "", -1, "")
	ctx, jobSpan := telemetry.StartSpan(ctx, "mr-job:"+cfg.Name,
		telemetry.A("job", cfg.Name), telemetry.A("workers", cfg.Workers),
		telemetry.A("reducers", cfg.Reducers), telemetry.A("records", len(input)))
	fail := func(err error) (*Result, error) {
		cfg.emit("job-end", "", -1, err.Error())
		jobSpan.SetAttr("error", err.Error())
		jobSpan.End()
		return nil, err
	}

	// --- Split ---------------------------------------------------------
	var splits [][][]byte
	for off := 0; off < len(input); off += cfg.SplitSize {
		end := off + cfg.SplitSize
		if end > len(input) {
			end = len(input)
		}
		splits = append(splits, input[off:end])
	}

	// --- Map (+ combine) ------------------------------------------------
	cfg.emit("phase-start", "map", -1, "")
	mapCtx, mapSpan := telemetry.StartSpan(ctx, "map", telemetry.A("tasks", len(splits)))
	mapStart := time.Now()
	taskOut, combineDur, err := runMapPhase(mapCtx, cfg, splits, mapper, counters)
	mapSpan.End()
	if err != nil {
		return fail(err)
	}
	mapDur := time.Since(mapStart)
	cfg.emitEvent(Event{Kind: "phase-end", Phase: "map", Task: -1,
		Duration: mapDur, Records: counters.Get(CounterMapOut)})

	// --- Shuffle ---------------------------------------------------------
	// In-memory jobs group eagerly here; spilled jobs only set up the
	// merge streams, and the actual k-way merge happens lazily inside the
	// reduce tasks (its cost lands in the Reduce timing, as it would on a
	// real cluster where reducers pull map outputs).
	cfg.emit("phase-start", "shuffle", -1, "")
	_, shuffleSpan := telemetry.StartSpan(ctx, "shuffle")
	shuffleStart := time.Now()
	sources, err := buildGroupSources(cfg, taskOut, counters)
	shuffleSpan.End()
	if err != nil {
		return fail(err)
	}
	shuffleDur := time.Since(shuffleStart)
	cfg.emitEvent(Event{Kind: "phase-end", Phase: "shuffle", Task: -1,
		Duration: shuffleDur, Records: counters.Get(CounterShuffle)})

	// --- Reduce ----------------------------------------------------------
	cfg.emit("phase-start", "reduce", -1, "")
	redCtx, reduceSpan := telemetry.StartSpan(ctx, "reduce", telemetry.A("tasks", cfg.Reducers))
	reduceStart := time.Now()
	pairs, err := runReducePhase(redCtx, cfg, sources, reducer, counters)
	reduceSpan.End()
	if err != nil {
		return fail(err)
	}
	reduceDur := time.Since(reduceStart)
	cfg.emitEvent(Event{Kind: "phase-end", Phase: "reduce", Task: -1,
		Duration: reduceDur, Records: counters.Get(CounterReduceOut)})
	cfg.emit("job-end", "", -1, "")
	jobSpan.End()

	res := &Result{
		Pairs:    pairs,
		Counters: counters,
		Timing: Timing{
			Map:     mapDur,
			Combine: combineDur,
			Shuffle: shuffleDur,
			Reduce:  reduceDur,
			Total:   time.Since(start),
		},
	}
	bridgeMetrics(cfg, res)
	return res, nil
}

// bridgeMetrics folds one finished job's counters and phase timings
// into the telemetry registry: counter names translate 1:1 from the
// dotted framework names ("mr.map.records.in" →
// "mr_map_records_in_total"), phase wall times land in the
// mr_phase_seconds histogram, and every series carries a job label.
func bridgeMetrics(cfg Config, res *Result) {
	bridgeCounters(cfg, res.Counters, res.Timing)
}

// bridgeCounters is the engine-path-agnostic body of bridgeMetrics,
// shared with the frame-shuffle path.
func bridgeCounters(cfg Config, counters *Counters, timing Timing) {
	reg := cfg.Metrics
	if reg == nil {
		return
	}
	job := telemetry.L("job", cfg.Name)
	for name, v := range counters.Snapshot() {
		reg.Counter(strings.ReplaceAll(name, ".", "_")+"_total", job).Add(v)
	}
	buckets := telemetry.DurationBuckets()
	for _, p := range []struct {
		phase string
		d     time.Duration
	}{
		{"map", timing.Map},
		{"combine", timing.Combine},
		{"shuffle", timing.Shuffle},
		{"reduce", timing.Reduce},
		{"total", timing.Total},
	} {
		reg.Histogram("mr_phase_seconds", buckets, job, telemetry.L("phase", p.phase)).Observe(p.d.Seconds())
	}
	reg.Counter("mr_jobs_total", job).Inc()
}

// taskOutput is one map task's output, partitioned by reducer.
type taskOutput struct {
	inMem [][]Pair // indexed by reducer partition; nil when spilled
	files []string // spill file per reducer partition; nil when in memory
}

func runMapPhase(ctx context.Context, cfg Config, splits [][][]byte, mapper Mapper, counters *Counters) ([]taskOutput, time.Duration, error) {
	outputs := make([]taskOutput, len(splits))
	var combineNanos int64
	var combineMu sync.Mutex

	err := runTasks(ctx, cfg.Workers, len(splits), func(worker, task int) error {
		var lastErr error
		cfg.emit("task-start", "map", task, "")
		_, span := telemetry.StartSpan(ctx, "map-task", telemetry.A("task", task),
			telemetry.A("records", len(splits[task])))
		span.SetTrack(worker + 1)
		taskStart := time.Now()
		for attempt := 1; attempt <= cfg.MaxAttempts; attempt++ {
			if attempt > 1 {
				counters.Add(CounterMapRetries, 1)
				cfg.emit("task-retry", "map", task, lastErr.Error())
			}
			out, cd, err := runMapTask(cfg, task, splits[task], mapper, counters)
			if err == nil {
				outputs[task] = out
				combineMu.Lock()
				combineNanos += int64(cd)
				combineMu.Unlock()
				span.End()
				cfg.emitEvent(Event{Kind: "task-end", Phase: "map", Task: task,
					Worker: worker + 1, Duration: time.Since(taskStart),
					Records: int64(len(splits[task]))})
				return nil
			}
			lastErr = err
		}
		span.SetAttr("error", lastErr.Error())
		span.End()
		cfg.emitEvent(Event{Kind: "task-end", Phase: "map", Task: task, Err: lastErr.Error(),
			Worker: worker + 1, Duration: time.Since(taskStart)})
		return fmt.Errorf("mapreduce: %s: map task %d failed after %d attempt(s): %w",
			cfg.Name, task, cfg.MaxAttempts, lastErr)
	})
	if err != nil {
		return nil, 0, err
	}
	return outputs, time.Duration(combineNanos), nil
}

func runMapTask(cfg Config, task int, records [][]byte, mapper Mapper, counters *Counters) (taskOutput, time.Duration, error) {
	parts := make([][]Pair, cfg.Reducers)
	// Pre-size each bucket for the common one-emit-per-record mapper;
	// selective mappers just leave slack.
	for r := range parts {
		parts[r] = make([]Pair, 0, len(records)/cfg.Reducers+1)
	}
	emit := func(key string, value []byte) {
		r := partitionOf(key, cfg.Reducers)
		parts[r] = append(parts[r], Pair{Key: key, Value: value})
	}
	// One counter update per task, not per record — the mutex-protected
	// map add is measurable at millions of records.
	counters.Add(CounterMapIn, int64(len(records)))
	for _, rec := range records {
		if err := mapper.Map(rec, emit); err != nil {
			return taskOutput{}, 0, err
		}
	}
	emitted := 0
	for _, p := range parts {
		emitted += len(p)
	}
	counters.Add(CounterMapOut, int64(emitted))

	var combineDur time.Duration
	if cfg.Combiner != nil {
		cs := time.Now()
		for r := range parts {
			combined, err := combinePartition(cfg.Combiner, parts[r], counters)
			if err != nil {
				return taskOutput{}, 0, fmt.Errorf("combiner: %w", err)
			}
			parts[r] = combined
		}
		combineDur = time.Since(cs)
	}

	if cfg.SpillDir == "" {
		return taskOutput{inMem: parts}, combineDur, nil
	}
	// Spill files are sorted runs so the reduce phase can stream a k-way
	// merge instead of materializing hash groups.
	for r := range parts {
		sortPairsByKey(parts[r])
	}
	files, err := spillTask(cfg, task, parts, counters)
	if err != nil {
		return taskOutput{}, 0, err
	}
	return taskOutput{files: files}, combineDur, nil
}

// combinePartition groups one partition's pairs by key and runs the
// combiner per group, preserving first-seen key order.
func combinePartition(combiner Reducer, pairs []Pair, counters *Counters) ([]Pair, error) {
	if len(pairs) == 0 {
		return pairs, nil
	}
	counters.Add(CounterCombineIn, int64(len(pairs)))
	order := make([]string, 0, 8)
	groups := make(map[string][][]byte, 8)
	for _, p := range pairs {
		if _, ok := groups[p.Key]; !ok {
			order = append(order, p.Key)
		}
		groups[p.Key] = append(groups[p.Key], p.Value)
	}
	out := make([]Pair, 0, len(order))
	emit := func(key string, value []byte) {
		out = append(out, Pair{Key: key, Value: value})
	}
	for _, k := range order {
		if err := combiner.Reduce(k, groups[k], emit); err != nil {
			return nil, err
		}
	}
	counters.Add(CounterCombineOut, int64(len(out)))
	return out, nil
}

// group is one reduce key group.
type group struct {
	key    string
	values [][]byte
}

// shuffle merges map outputs into per-reducer key groups, reading spill
// files back when present. Iterating tasks in index order makes value
// order deterministic regardless of map scheduling.
func shuffle(cfg Config, tasks []taskOutput, counters *Counters) ([][]group, error) {
	perReducer := make([]map[string][][]byte, cfg.Reducers)
	orders := make([][]string, cfg.Reducers)
	for r := range perReducer {
		perReducer[r] = make(map[string][][]byte)
	}
	var shufRecs, shufBytes int64
	add := func(r int, p Pair) {
		if _, ok := perReducer[r][p.Key]; !ok {
			orders[r] = append(orders[r], p.Key)
		}
		perReducer[r][p.Key] = append(perReducer[r][p.Key], p.Value)
		shufRecs++
		shufBytes += int64(len(p.Key) + len(p.Value))
	}
	for _, t := range tasks {
		if t.files != nil {
			for r, f := range t.files {
				if f == "" {
					continue
				}
				pairs, err := readSpill(f)
				if err != nil {
					return nil, fmt.Errorf("mapreduce: %s: reading spill %s: %w", cfg.Name, f, err)
				}
				for _, p := range pairs {
					add(r, p)
				}
				if err := os.Remove(f); err != nil {
					return nil, fmt.Errorf("mapreduce: %s: removing spill: %w", cfg.Name, err)
				}
			}
			continue
		}
		for r, pairs := range t.inMem {
			for _, p := range pairs {
				add(r, p)
			}
		}
	}
	counters.Add(CounterShuffle, shufRecs)
	counters.Add(CounterShuffleBytes, shufBytes)
	out := make([][]group, cfg.Reducers)
	for r := range out {
		sort.Strings(orders[r])
		gs := make([]group, 0, len(orders[r]))
		for _, k := range orders[r] {
			gs = append(gs, group{key: k, values: perReducer[r][k]})
		}
		out[r] = gs
	}
	return out, nil
}

func runReducePhase(ctx context.Context, cfg Config, sources []groupSource, reducer Reducer, counters *Counters) ([]Pair, error) {
	outs := make([][]Pair, cfg.Reducers)
	err := runTasks(ctx, cfg.Workers, cfg.Reducers, func(worker, r int) error {
		src := sources[r]
		defer src.close()
		var lastErr error
		cfg.emit("task-start", "reduce", r, "")
		_, span := telemetry.StartSpan(ctx, "reduce-task", telemetry.A("task", r))
		span.SetTrack(worker + 1)
		taskStart := time.Now()
		for attempt := 1; attempt <= cfg.MaxAttempts; attempt++ {
			if attempt > 1 {
				counters.Add(CounterRedRetries, 1)
				cfg.emit("task-retry", "reduce", r, lastErr.Error())
				if err := src.reset(); err != nil {
					lastErr = err
					break
				}
			}
			out, err := runReduceTask(reducer, src, counters)
			if err == nil {
				outs[r] = out
				span.SetAttr("records", len(out))
				span.End()
				cfg.emitEvent(Event{Kind: "task-end", Phase: "reduce", Task: r,
					Worker: worker + 1, Duration: time.Since(taskStart),
					Records: int64(len(out))})
				return nil
			}
			lastErr = err
		}
		span.SetAttr("error", lastErr.Error())
		span.End()
		cfg.emitEvent(Event{Kind: "task-end", Phase: "reduce", Task: r, Err: lastErr.Error(),
			Worker: worker + 1, Duration: time.Since(taskStart)})
		return fmt.Errorf("mapreduce: %s: reduce task %d failed after %d attempt(s): %w",
			cfg.Name, r, cfg.MaxAttempts, lastErr)
	})
	if err != nil {
		// Release any sources the failed run never reached.
		for _, src := range sources {
			_ = src.close()
		}
		return nil, err
	}
	var pairs []Pair
	for _, out := range outs {
		pairs = append(pairs, out...)
	}
	return pairs, nil
}

func runReduceTask(reducer Reducer, src groupSource, counters *Counters) ([]Pair, error) {
	var out []Pair
	emit := func(key string, value []byte) {
		out = append(out, Pair{Key: key, Value: value})
	}
	for {
		g, ok, err := src.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		counters.Add(CounterGroups, 1)
		counters.Add(CounterReduceIn, int64(len(g.values)))
		if err := reducer.Reduce(g.key, g.values, emit); err != nil {
			return nil, err
		}
	}
	counters.Add(CounterReduceOut, int64(len(out)))
	return out, nil
}

// runTasks executes fn(worker, 0..n-1) on a pool of `workers`
// goroutines, stopping at the first error or context cancellation. The
// worker index identifies the executing pool slot, so callers can
// build per-worker timelines.
func runTasks(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	tasks := make(chan int)
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range tasks {
				if err := fn(worker, i); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	var firstErr error
feed:
	for i := 0; i < n; i++ {
		select {
		case tasks <- i:
		case err := <-errc:
			firstErr = err
			break feed
		case <-ctx.Done():
			firstErr = ctx.Err()
			break feed
		}
	}
	close(tasks)
	wg.Wait()
	if firstErr == nil {
		select {
		case err := <-errc:
			firstErr = err
		default:
		}
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// partitionOf maps a key to a reducer partition by FNV-1a hash.
func partitionOf(key string, reducers int) int {
	if reducers == 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(reducers))
}

func spillFileName(cfg Config, task, reducer int) string {
	return filepath.Join(cfg.SpillDir, fmt.Sprintf("%s-m%05d-r%03d.seq", cfg.Name, task, reducer))
}
