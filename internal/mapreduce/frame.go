package mapreduce

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/points"
	"repro/internal/telemetry"
)

// The engine: packed point frames (points.AppendFrame's partition + count
// + contiguous coordinates) are what moves between phases. A map task is
// fed rows — from an in-memory set, a chunk source or a split's input
// frame — routes each row to an integer partition and folds it straight
// into that partition's accumulator; accumulators are sealed into
// per-reducer frame streams, and reduce tasks decode whole frames into
// their partitions' folds. No string keys, no per-point record or value
// allocation anywhere on the way.

// EmitPoint is the frame-path emit callback: it hands one point to the
// partition's accumulator, which copies what it keeps immediately, so
// callers may reuse the slice. Valid only for the duration of the
// Map/Reduce call.
type EmitPoint func(partition int, coords []float64)

// RowMapper routes one input row to zero or more (partition, point)
// emissions — Algorithm 1's per-point map function. The row is only valid
// for the call. Must be safe for concurrent use.
type RowMapper func(row []float64, emit EmitPoint) error

// Blocks is a map task's input read a block at a time: it calls each with
// the task's blocks in order and returns the first error, each's or its own
// (a split that could not be fetched or decoded). A block is only read, and
// the task may keep it: in process it is the resident block itself, on a
// cluster a block decoded afresh from its split.
type Blocks func(each func(blk *points.Block) error) error

// TaskMapper maps a whole map task at once, for a job whose map tasks are
// each handed a list of blocks (see WholeInput): input streams task's list,
// and task is its index of tasks. The merge gives each task the levels and
// its own group first, keeps them, and streams the rest past the group. It
// returns the task's own tallies: MapIn, the input rows that were this
// task's to map — summed over the tasks, the job's mr.map.records.in — and,
// for a task that holds state, its PeakBytes and Passes. Must be safe for
// concurrent use.
type TaskMapper func(input Blocks, task, tasks int, emit EmitPoint) (FrameStats, error)

// FrameCombiner folds the block one partition's accumulator sealed,
// map-side, before the frame is encoded — a whole-block combiner for
// kernels that are not incremental. It may return its argument (mutated
// or not) or a fresh block; the result is encoded and dropped, the
// argument goes back to the accumulator. Must be safe for concurrent use.
type FrameCombiner func(partition int, block *points.Block) (*points.Block, error)

// PartStat tallies one partition's shuffle contribution: Records is the
// map-output point count routed to the partition (pre-combine — the
// partition's true load), Bytes the sealed frame payload it shipped
// (post-combine). The flight recorder turns these into the per-partition
// skew picture.
type PartStat struct {
	Records int64
	Bytes   int64
}

// FrameStats tallies one frame-path task, in the same units as the
// framework counters: record counts are points, byte counts are frame
// payload bytes (header + coordinates — never the transport envelope).
type FrameStats struct {
	MapIn      int64
	MapOut     int64
	CombineIn  int64
	CombineOut int64
	// CombineNanos is the time spent sealing accumulators and running the
	// block combiner. An incremental accumulator combines inside Add, as
	// rows arrive; that share is map time and is not split out.
	CombineNanos int64
	ShuffleRecs  int64
	ShuffleBytes int64
	// OutputBytes is a map-only job's sealed output: mr.output.bytes.
	OutputBytes int64
	Groups      int64
	ReduceIn    int64
	ReduceOut   int64
	// PeakBytes is a task's working-set high-water mark: a reduce task's
	// folds + one frame of decode scratch, or what a merge task
	// (TaskMapper) counts it holds; 0 for any other map task. Aggregation
	// takes the max, not the sum — it is a per-task peak.
	PeakBytes int64
	// Passes counts multi-pass fold resolutions (max across folds); 1
	// means everything fit the window.
	Passes int
	// Partitions breaks the shuffle volume down by data-space partition
	// id (map tasks only; nil on the reduce side).
	Partitions map[int]PartStat
}

// Add accumulates another task's tallies into s: counts sum, the peak and
// the pass count take the maximum, per-partition volumes merge by id. Every
// executor aggregates its accepted task reports with it.
func (s *FrameStats) Add(o FrameStats) {
	s.MapIn += o.MapIn
	s.MapOut += o.MapOut
	s.CombineIn += o.CombineIn
	s.CombineOut += o.CombineOut
	s.CombineNanos += o.CombineNanos
	s.ShuffleRecs += o.ShuffleRecs
	s.ShuffleBytes += o.ShuffleBytes
	s.OutputBytes += o.OutputBytes
	s.Groups += o.Groups
	s.ReduceIn += o.ReduceIn
	s.ReduceOut += o.ReduceOut
	if o.PeakBytes > s.PeakBytes {
		s.PeakBytes = o.PeakBytes
	}
	if o.Passes > s.Passes {
		s.Passes = o.Passes
	}
	if len(o.Partitions) > 0 {
		if s.Partitions == nil {
			s.Partitions = make(map[int]PartStat, len(o.Partitions))
		}
		for id, ps := range o.Partitions {
			acc := s.Partitions[id]
			acc.Records += ps.Records
			acc.Bytes += ps.Bytes
			s.Partitions[id] = acc
		}
	}
}

// FrameResult is the outcome of a successful frame job.
type FrameResult struct {
	// Blocks maps partition id → that partition's reduce output. Contents
	// are deterministic: frames are assembled in reduce-task (and within a
	// task, map-task) order.
	Blocks   map[int]*points.Block
	Counters *Counters
	Timing   Timing
	// Partitions breaks the map-side shuffle volume down by data-space
	// partition id, for the flight recorder's skew picture. Records is
	// every point the mapper routed to the partition, before any combining.
	Partitions map[int]PartStat
	// ReducerPeakBytes is the largest working set any reduce task reached
	// — the number a reducer budget is judged against, and what tells an
	// operator which budget a job needs.
	ReducerPeakBytes int64
	// MergePasses is the largest fold pass count any reduce task needed
	// (1 = single pass; >1 means a local skyline overflowed its window).
	MergePasses int
}

// ---------------------------------------------------------------------------
// Accumulators (map side)

// Accumulator collects the rows one map task routes to one partition. Add
// takes rows one at a time as the mapper emits them and copies what it
// keeps; Seal returns the block to ship, valid until the next Add or
// Reset; Reset empties the accumulator for the next task, keeping its
// capacity. An accumulator is driven by one goroutine at a time.
type Accumulator interface {
	Add(row []float64)
	Seal() *points.Block
	Reset()
}

// Accumulators is a kind of accumulator together with the pool that
// recycles it: a map task borrows a builder holding one accumulator per
// partition it touches and returns it, capacity intact, when its frames
// are sealed. In the steady state mapping therefore allocates nothing per
// point — per task only the sealed streams and the tallies. Keep one
// Accumulators value per kind for the life of the process: the pool is
// the point.
type Accumulators struct {
	pool sync.Pool
}

// NewAccumulators returns a recycling source of the accumulators newAcc
// creates. They are taken to combine as they accumulate: the engine books
// their input and output as mr.combine.records.*, as it does a
// FrameCombiner's. Every block they Seal must be the skyline of the rows
// added since the last Reset, duplicates allowed, as skyline.Window's is:
// a job's reduce tasks take each such frame in by SealedFold.AbsorbSealed
// unless the job's Combiner rewrites the seal (see ReduceFramesStream).
func NewAccumulators(newAcc func() Accumulator) *Accumulators {
	return newAccumulators(newAcc, true)
}

func newAccumulators(newAcc func() Accumulator, combines bool) *Accumulators {
	a := new(Accumulators)
	a.pool.New = func() any { return &frameBuilder{newAcc: newAcc, combines: combines} }
	return a
}

// Staging is the default kind: rows are staged unchanged in a block that
// keeps its capacity across tasks. It is what a job without a map-side
// combiner uses, and what a whole-block FrameCombiner reads from.
var Staging = newAccumulators(func() Accumulator { return stagedRows{points.NewBlock(0, 0)} }, false)

type stagedRows struct{ blk *points.Block }

func (s stagedRows) Add(row []float64)   { s.blk.AppendRow(row) }
func (s stagedRows) Seal() *points.Block { return s.blk }
func (s stagedRows) Reset()              { s.blk.Clear() }

// frameBuilder holds one task's accumulators, indexed by partition id.
type frameBuilder struct {
	newAcc   func() Accumulator
	combines bool          // the accumulators combine as they accumulate
	accs     []Accumulator // nil until the partition is first touched
	routed   []int64       // rows added per partition by the current task
	touched  []int         // partition ids with at least one row this task
	err      error         // sticky emit-side error (negative partition)
}

func (fb *frameBuilder) add(partition int, coords []float64) {
	if partition < 0 {
		if fb.err == nil {
			fb.err = fmt.Errorf("mapreduce: negative partition id %d emitted", partition)
		}
		return
	}
	for partition >= len(fb.accs) {
		fb.accs = append(fb.accs, nil)
		fb.routed = append(fb.routed, 0)
	}
	acc := fb.accs[partition]
	if acc == nil {
		acc = fb.newAcc()
		fb.accs[partition] = acc
	}
	if fb.routed[partition] == 0 {
		fb.touched = append(fb.touched, partition)
	}
	fb.routed[partition]++
	acc.Add(coords)
}

// reset empties the touched accumulators (keeping their capacity) for
// pooling.
func (fb *frameBuilder) reset() {
	for _, p := range fb.touched {
		fb.accs[p].Reset()
		fb.routed[p] = 0
	}
	fb.touched = fb.touched[:0]
	fb.err = nil
}

// seal closes every touched partition's accumulator, runs the block
// combiner on what it sealed, and encodes the result into per-reducer
// frame streams (partition p goes to reducer p mod reducers), in
// ascending partition order for determinism, adding the task's tallies
// to st. codec selects the frame wire codec (FrameDefault → v1, the
// historical bytes).
func (fb *frameBuilder) seal(reducers int, combiner FrameCombiner, codec points.FrameCodec, st *FrameStats) ([][]byte, error) {
	if fb.err != nil {
		return nil, fb.err
	}
	combining := combiner != nil || fb.combines
	streams := make([][]byte, reducers)
	st.Partitions = make(map[int]PartStat, len(fb.touched))
	sort.Ints(fb.touched)
	for _, p := range fb.touched {
		st.MapOut += fb.routed[p]
		cs := time.Now()
		blk := fb.accs[p].Seal()
		if combiner != nil {
			var err error
			if blk, err = combiner(p, blk); err != nil {
				return nil, fmt.Errorf("frame combiner: %w", err)
			}
		}
		st.CombineNanos += time.Since(cs).Nanoseconds()
		if combining {
			st.CombineIn += fb.routed[p]
			st.CombineOut += int64(blk.Len())
		}
		ps := PartStat{Records: fb.routed[p]}
		if blk.Len() > 0 {
			r := p % reducers
			before := len(streams[r])
			streams[r] = points.AppendFrameCodec(streams[r], p, blk, codec)
			ps.Bytes = int64(len(streams[r]) - before)
			st.ShuffleRecs += int64(blk.Len())
			st.ShuffleBytes += ps.Bytes
		}
		st.Partitions[p] = ps
	}
	return streams, nil
}

// buildFrames is the one map-task body, shared by every executor: feed
// pushes the task's routed rows into a borrowed builder's accumulators and
// returns the task's own tallies (see TaskMapper), and the accumulators are
// then sealed into one frame stream per reducer — or, with no reducers (a
// map-only job's task), into the one stream that is the task's output.
func buildFrames(feed func(emit EmitPoint) (FrameStats, error), accs *Accumulators, combiner FrameCombiner, reducers int, codec points.FrameCodec) ([][]byte, FrameStats, error) {
	if accs == nil {
		accs = Staging
	}
	fb := accs.pool.Get().(*frameBuilder)
	defer func() {
		fb.reset()
		accs.pool.Put(fb)
	}()
	st, err := feed(fb.add)
	if err != nil {
		return nil, FrameStats{}, err
	}
	streams, err := fb.seal(max(reducers, 1), combiner, codec, &st)
	if reducers == 0 {
		st.OutputBytes, st.ShuffleBytes, st.ShuffleRecs = st.ShuffleBytes, 0, 0
	}
	return streams, st, err
}

// MapFrames is map task task, of tasks, of job for an executor that ships a
// task's input as sealed frame streams (rpcmr), one split at a time:
// split(i) returns split i of the task's splits, in order, and what it
// returns need only last until the next call, so one buffer can carry them
// all. The rows of every split are walked straight into job.Mapper and the
// one set of accumulators the task borrowed — the body RunFrames gives a
// Feed's rows — so the windows stay warm across the splits, the task seals
// once, and nothing the size of a split is copied on the way; a job with a
// TaskMapper reads its input as the stream of blocks it is handed in
// process, each split decoded into a fresh block as the stream reaches it.
// job.Feed is not read. A task without splits, an empty, malformed or
// mixed-dimension split, or an error from split fails the task, as does a
// task index outside the job.
func MapFrames(job FrameJob, splits int, split func(i int) ([]byte, error), task, tasks, reducers int, codec points.FrameCodec) ([][]byte, FrameStats, error) {
	if splits < 1 {
		return nil, FrameStats{}, fmt.Errorf("mapreduce: map task without an input frame")
	}
	if task < 0 || task >= tasks {
		return nil, FrameStats{}, fmt.Errorf("mapreduce: map task %d of %d", task, tasks)
	}
	// each hands the task's splits to read, in order.
	each := func(read func(input []byte) error) error {
		for i := 0; i < splits; i++ {
			input, err := split(i)
			if err == nil && len(input) == 0 {
				err = fmt.Errorf("mapreduce: map task without an input frame: split %d of %d is empty", i, splits)
			}
			if err == nil {
				err = read(input)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	feed := func(emit EmitPoint) (st FrameStats, err error) {
		err = each(func(input []byte) error {
			n, err := points.WalkFrames(input, func(row []float64) error { return job.Mapper(row, emit) })
			st.MapIn += int64(n)
			return err
		})
		return st, err
	}
	if job.TaskMapper != nil {
		// A split is one block: its frames decode into it, so a split whose
		// dimension changes fails here; whether the blocks agree is the
		// task's to check.
		input := func(block func(*points.Block) error) error {
			return each(func(input []byte) (err error) {
				blk := points.NewBlock(0, 0)
				for rest := input; len(rest) > 0 && err == nil; {
					_, rest, err = points.DecodeFrame(blk, rest)
				}
				if err != nil {
					return err
				}
				return block(blk)
			})
		}
		feed = func(emit EmitPoint) (FrameStats, error) {
			return job.TaskMapper(input, task, tasks, emit)
		}
	}
	reducers = max(reducers, 1)
	if job.Folder == nil {
		reducers = 0 // map-only: the task's one stream is its output
	}
	return buildFrames(feed, job.Accumulators, job.Combiner, reducers, codec)
}

// AssembleFrames decodes frame streams into per-partition blocks,
// appending in stream order — zero allocation per point, one block per
// distinct partition. Exported so frame consumers outside the engine
// (the rpcmr master, pipeline drivers) decode output streams the same
// way reduce tasks do.
func AssembleFrames(streams [][]byte) (map[int]*points.Block, error) {
	parts := make(map[int]*points.Block)
	for _, stream := range streams {
		for len(stream) > 0 {
			// Peek the owning partition, then decode straight into its block.
			p, _, err := points.FrameCount(stream)
			if err != nil {
				return nil, fmt.Errorf("mapreduce: bad frame: %w", err)
			}
			blk := parts[p]
			if blk == nil {
				blk = points.NewBlock(0, 0)
				parts[p] = blk
			}
			if _, rest, err := points.DecodeFrame(blk, stream); err != nil {
				return nil, fmt.Errorf("mapreduce: bad frame: %w", err)
			} else {
				stream = rest
			}
		}
	}
	return parts, nil
}

// ---------------------------------------------------------------------------
// Row feeds (job input)

// RowFeed is a frame job's input as rows, cut into map tasks. A feed
// drives the mapper itself — for every row of a task it calls
// mapper(row, emit) — so nothing between the input's own storage and the
// partition accumulators holds a copy of a point. Build one with SetRows or
// ChunkRows — or, for a job with a TaskMapper, WholeInput.
//
// A feed counts its input in its own unit, rows or chunks, and a map task is
// a worker's share of them, ceil(units / Workers) consecutive units, so a
// job has as many map tasks as workers. A task's accumulators live exactly
// as long as the task, and a combining accumulator (a skyline window) pays
// for every restart: it starts cold, and it ships a skyline of its own that
// barely shrinks when the task does. So tasks are as long as the worker
// count allows; what a job outputs is a function of the input and Workers
// alone.
type RowFeed struct {
	// units is the input length in the feed's unit (0 for WholeInput).
	units int
	// feed maps units [lo, hi) and returns the number of rows it fed.
	feed func(lo, hi int, mapper RowMapper, emit EmitPoint) (int, error)
	// whole, for WholeInput, is what each map task hands its TaskMapper:
	// task t, whole[t].
	whole [][]*points.Block
}

// WholeInput feeds map task t the blocks inputs[t], whole and as they are,
// one at a time — len(inputs) tasks: the feed of a job with a TaskMapper.
// The merge hands task g the levels, its group and then the rows at or
// below the group's sums.
func WholeInput(inputs [][]*points.Block) RowFeed {
	return RowFeed{whole: inputs}
}

// SetRows feeds an in-memory point set, in order; its unit is the row.
func SetRows(data points.Set) RowFeed {
	return RowFeed{units: len(data), feed: func(lo, hi int, mapper RowMapper, emit EmitPoint) (int, error) {
		for _, p := range data[lo:hi] {
			if err := mapper(p, emit); err != nil {
				return 0, err
			}
		}
		return hi - lo, nil
	}}
}

// ChunkRows feeds an out-of-core input; its unit is the chunk. A task walks
// its chunks one at a time, each in pieces through the one block it borrows
// from the feed's free list, emptied before every chunk, so a worker never
// holds more than one piece of WalkRows rows and the input never exists in
// memory, while the task's accumulators see every row of its run. The block
// goes back with its capacity once the rows are routed (or the task failed):
// the feed holds at most one block per engine worker for its life, and a
// steady-state task allocates no chunk memory. A failed walk or mapper fails
// the task.
func ChunkRows(src ChunkSource) RowFeed {
	var mu sync.Mutex
	var free []*points.Block
	return RowFeed{units: src.Chunks(), feed: func(lo, hi int, mapper RowMapper, emit EmitPoint) (int, error) {
		var blk *points.Block
		mu.Lock()
		if last := len(free) - 1; last >= 0 {
			blk, free = free[last], free[:last]
		}
		mu.Unlock()
		if blk == nil {
			blk = points.NewBlock(0, 0)
		}
		defer func() {
			mu.Lock()
			free = append(free, blk)
			mu.Unlock()
		}()
		rows := 0
		var mapErr error
		route := func(piece *points.Block) error {
			n := piece.Len()
			for i := 0; i < n; i++ {
				if mapErr = mapper(piece.Row(i), emit); mapErr != nil {
					return mapErr
				}
			}
			rows += n
			return nil
		}
		for c := lo; c < hi; c++ {
			blk.Clear() // of the chunk before, or of whatever a failed task left
			if err := src.WalkChunk(c, blk, route); mapErr != nil {
				return 0, mapErr
			} else if err != nil {
				return 0, fmt.Errorf("reading chunk %d: %w", c, err)
			}
		}
		return rows, nil
	}}
}

// ---------------------------------------------------------------------------
// In-process frame job execution

// FrameJob is what a frame-shuffle job computes: rows from Feed are routed
// by Mapper — or, where a task maps a list of blocks at once, each task's
// list of a WholeInput by TaskMapper — into
// per-partition Accumulators (nil means Staging), each sealed block
// optionally passes through Combiner, and the shuffled frames are reduced
// by Folder's per-partition folds, which absorb the frames one at a time.
// The two sides mirror each other: rows arrive one at a time in an
// Accumulator, frames one at a time in a FrameFold, and where the operator
// needs everything at once the rows are staged (Staging + Combiner) and the
// frames assembled (Assembled). What a reduce task holds
// is up to its folds — a budgeted one keeps it near its budget whatever the
// partition's size — plus one frame of decode scratch. A job without a
// Folder is map-only: its sealed map output, in task order, is its result,
// and nothing is shuffled or reduced.
type FrameJob struct {
	Feed         RowFeed
	Mapper       RowMapper
	TaskMapper   TaskMapper
	Accumulators *Accumulators
	Combiner     FrameCombiner
	Folder       FrameFolder
}

// sealsSkylines reports whether every frame the job's map tasks seal is a
// skyline: its accumulators are NewAccumulators' — Staging's staged rows
// are not — and no Combiner rewrites their seal.
func (job FrameJob) sealsSkylines() bool {
	return job.Accumulators != nil && job.Accumulators != Staging && job.Combiner == nil
}

// RunFrames executes a MapReduce job in process — the
// split → map → (combine) → shuffle → reduce pipeline, with the input
// arriving as rows and the intermediate data moving as packed frames — and
// blocks until the job completes, fails, or ctx is cancelled. A map task's
// sealed per-reducer streams stay in memory until the reduce tasks have
// folded them. Each phase is timed, counted (mr.* counters; the
// shuffle-byte counter reports frame payload bytes, header + coordinates),
// traced and bridged into cfg.Metrics. A map-only job (no Folder) stops
// after its map phase: its map tasks' sealed streams, assembled in task
// order, are its result — they cross no wire, so they are always sealed as
// raw v1 frames — and their bytes are mr.output.bytes, not shuffle.
func RunFrames(ctx context.Context, cfg Config, job FrameJob) (*FrameResult, error) {
	if (job.Mapper == nil) == (job.TaskMapper == nil) || (job.Mapper == nil) != (job.Feed.feed == nil) {
		return nil, fmt.Errorf("mapreduce: %s: need a row feed and a mapper, or a whole-input feed and a task mapper", cfg.Name)
	}
	units := job.Feed.units
	cfg = cfg.withDefaults()
	// A map task is a worker's share of the feed's units (see RowFeed).
	share := max((units+cfg.Workers-1)/cfg.Workers, 1)
	tasks := (units + share - 1) / share
	if job.TaskMapper != nil {
		tasks = len(job.Feed.whole)
	}
	mapOnly := job.Folder == nil
	if mapOnly {
		cfg.Reducers, cfg.Codec = 0, points.FrameDefault
	}
	counters := NewCounters()
	start := time.Now()
	ctx, jobSpan := telemetry.StartSpan(ctx, "mr-job:"+cfg.Name,
		telemetry.A("job", cfg.Name), telemetry.A("workers", cfg.Workers),
		telemetry.A("reducers", cfg.Reducers), telemetry.A("tasks", tasks),
		telemetry.A("shuffle", "frames"))
	fail := func(err error) (*FrameResult, error) {
		jobSpan.SetAttr("error", err.Error())
		jobSpan.End()
		return nil, err
	}

	// --- Map (+ combine) -----------------------------------------------
	mapCtx, mapSpan := telemetry.StartSpan(ctx, "map", telemetry.A("tasks", tasks))
	mapStart := time.Now()
	// outputs[task][r] is map task task's sealed stream for reducer r.
	outputs := make([][][]byte, tasks)
	st, err := runPhase(mapCtx, cfg, "map", tasks, func(task int) (st FrameStats, err error) {
		outputs[task], st, err = buildFrames(func(emit EmitPoint) (FrameStats, error) {
			if job.TaskMapper != nil {
				return job.TaskMapper(func(each func(*points.Block) error) error {
					for _, blk := range job.Feed.whole[task] {
						if err := each(blk); err != nil {
							return err
						}
					}
					return nil
				}, task, tasks, emit)
			}
			lo := task * share
			rows, err := job.Feed.feed(lo, min(lo+share, job.Feed.units), job.Mapper, emit)
			return FrameStats{MapIn: int64(rows)}, err
		}, job.Accumulators, job.Combiner, cfg.Reducers, cfg.Codec)
		return st, err
	})
	mapSpan.End()
	if err != nil {
		return fail(err)
	}
	timing := Timing{Map: time.Since(mapStart)}

	// A map-only job's output is its map tasks' streams, in task order; any
	// other job's is its reduce tasks', in reduce-task order.
	var streams [][]byte
	if mapOnly {
		for _, out := range outputs {
			streams = append(streams, out...)
		}
	} else {
		// --- Shuffle -----------------------------------------------------
		// Frames are already partitioned per reducer when map tasks seal
		// them, so the in-memory shuffle is zero-copy and this phase is a
		// boundary only: a span.
		_, shuffleSpan := telemetry.StartSpan(ctx, "shuffle")
		shuffleStart := time.Now()
		shuffleSpan.End()
		timing.Shuffle = time.Since(shuffleStart)

		// --- Reduce ------------------------------------------------------
		// Each task is ReduceFramesStream over reducer r's streams, in
		// map-task order.
		redCtx, reduceSpan := telemetry.StartSpan(ctx, "reduce", telemetry.A("tasks", cfg.Reducers))
		reduceStart := time.Now()
		streams = make([][]byte, cfg.Reducers)
		redStats, err := runPhase(redCtx, cfg, "reduce", cfg.Reducers, func(r int) (st FrameStats, err error) {
			in := make([][]byte, tasks)
			for task, out := range outputs {
				in[task] = out[r]
			}
			streams[r], st, err = ReduceFramesStream(in, job, cfg.Codec)
			return st, err
		})
		reduceSpan.End()
		if err != nil {
			return fail(err)
		}
		timing.Reduce = time.Since(reduceStart)
		st.Add(redStats)
	}
	blocks, err := AssembleFrames(streams)
	if err != nil {
		return fail(fmt.Errorf("mapreduce: %s: assembling the output: %w", cfg.Name, err))
	}
	timing.Total = time.Since(start)
	jobSpan.End()

	res := NewFrameResult(blocks, counters, st, timing)
	bridgeCounters(cfg, counters, res.Timing)
	return res, nil
}

// NewFrameResult is how a finished job's result is put together, by RunFrames
// and by the cluster master alike: st — the summed tallies of every task's
// one accepted attempt, map and reduce — becomes the mr.* counters, the
// per-partition volumes, the reducer peak and pass count, and timing's
// Combine share. counters already holds what an executor counts as it
// happens: the cluster's task retries.
func NewFrameResult(blocks map[int]*points.Block, counters *Counters, st FrameStats, timing Timing) *FrameResult {
	counters.Add(CounterMapIn, st.MapIn)
	counters.Add(CounterMapOut, st.MapOut)
	if st.CombineIn > 0 {
		counters.Add(CounterCombineIn, st.CombineIn)
		counters.Add(CounterCombineOut, st.CombineOut)
	}
	counters.Add(CounterShuffle, st.ShuffleRecs)
	counters.Add(CounterShuffleBytes, st.ShuffleBytes)
	counters.Add(CounterOutputBytes, st.OutputBytes)
	counters.Add(CounterGroups, st.Groups)
	counters.Add(CounterReduceIn, st.ReduceIn)
	counters.Add(CounterReduceOut, st.ReduceOut)
	timing.Combine = time.Duration(st.CombineNanos)
	return &FrameResult{
		Blocks:           blocks,
		Counters:         counters,
		Timing:           timing,
		Partitions:       st.Partitions,
		ReducerPeakBytes: st.PeakBytes,
		MergePasses:      st.Passes,
	}
}

// runPhase runs a phase's n tasks on cfg.Workers goroutines, each under a
// "<kind>-task" span on its worker's track, and returns their summed
// tallies. A task runs once: in process a failure repeats on a second
// attempt (a bad row, a fold's full overflow disk), so the first error fails
// the job.
func runPhase(ctx context.Context, cfg Config, kind string, n int, task func(i int) (FrameStats, error)) (FrameStats, error) {
	var mu sync.Mutex
	var agg FrameStats
	err := runTasks(ctx, cfg.Workers, n, func(worker, i int) error {
		_, span := telemetry.StartSpan(ctx, kind+"-task", telemetry.A("task", i))
		span.SetTrack(worker + 1)
		defer span.End()
		st, err := task(i)
		if err != nil {
			span.SetAttr("error", err.Error())
			return fmt.Errorf("mapreduce: %s: %s task %d: %w", cfg.Name, kind, i, err)
		}
		// A map task's records are the rows it read, a reduce task's the
		// rows it wrote; each leaves the other count 0.
		span.SetAttr("records", int(st.MapIn+st.ReduceOut))
		mu.Lock()
		agg.Add(st)
		mu.Unlock()
		return nil
	})
	return agg, err
}
