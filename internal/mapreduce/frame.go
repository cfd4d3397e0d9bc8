package mapreduce

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
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

// TaskMapper is a map task of a job whose tasks are each handed a list of
// blocks (see WholeInput), which input streams. It returns the task's output
// as one block that nothing else shares, and its tallies: MapIn, the rows
// that were its to map (summed, mr.map.records.in), and for a task that
// holds state its PeakBytes and Passes. Must be safe for concurrent use.
type TaskMapper func(input Blocks) (*points.Block, FrameStats, error)

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
	// OutputBytes is a task job's output as frames: mr.output.bytes.
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
	// Blocks maps partition id → the block its reduce fold finished (frames
	// folded in map-task order), or, for a task job, task index → the block
	// the task returned, if it kept a row. Contents are deterministic. The
	// result owns the blocks: no pool or later job shares their memory.
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
	combines bool            // the accumulators combine as they accumulate
	accs     []Accumulator   // nil until the partition is first touched
	routed   []int64         // rows added per partition by the current task
	touched  []int           // partition ids with at least one row this task
	sealed   []*points.Block // seal's scratch: touched[i]'s sealed block
	err      error           // sticky emit-side error (negative partition)
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
// historical bytes). Every accumulator is sealed once, before any frame is
// written, so that each stream is allocated once, at the v1 length of its
// frames (points.FrameV1Len, FrameAuto's bound).
func (fb *frameBuilder) seal(reducers int, combiner FrameCombiner, codec points.FrameCodec, st *FrameStats) ([][]byte, error) {
	if fb.err != nil {
		return nil, fb.err
	}
	defer func() { clear(fb.sealed); fb.sealed = fb.sealed[:0] }()
	combining := combiner != nil || fb.combines
	sizes := make([]int, reducers)
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
		if blk.Len() > 0 {
			sizes[p%reducers] += points.FrameV1Len(p, blk)
		}
		fb.sealed = append(fb.sealed, blk)
	}
	streams := make([][]byte, reducers)
	for r, size := range sizes {
		if size > 0 {
			streams[r] = make([]byte, 0, size)
		}
	}
	st.Partitions = make(map[int]PartStat, len(fb.touched))
	for i, p := range fb.touched {
		blk := fb.sealed[i]
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

// buildFrames is the one row map-task body, shared by every executor: feed
// pushes the task's routed rows into a borrowed builder's accumulators and
// returns its tallies, and they are sealed into a stream per reducer.
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
	streams, err := fb.seal(reducers, combiner, codec, &st)
	return streams, st, err
}

// MapFrames is map task task of job for an executor that ships a task's
// input as sealed frame streams (rpcmr), one split at a time: split(i)
// returns split i of the task's splits, in order, and what it returns need
// only last until the next call, so one buffer can carry them all. The rows
// of every split are walked straight into job.Mapper and the one set of
// accumulators the task borrowed — the body RunFrames gives a Feed's rows —
// so the windows stay warm across the splits, the task seals once, and
// nothing the size of a split is copied on the way. A task job's task
// reads each split as a fresh block and its output is the block it returns,
// sealed as one frame of partition task, which AssembleFrames keys by task
// as RunFrames does. job.Feed is not read. A job of neither shape, a task
// without splits, an empty, malformed or mixed-dimension split, or an error
// from split fails the task.
func MapFrames(job FrameJob, splits int, split func(i int) ([]byte, error), task, reducers int, codec points.FrameCodec) ([][]byte, FrameStats, error) {
	whole, err := job.Check()
	if err != nil {
		return nil, FrameStats{}, err
	}
	if splits < 1 {
		return nil, FrameStats{}, fmt.Errorf("mapreduce: map task without an input frame")
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
	if whole {
		// A split is one block, which the task may keep: its frames decode
		// into it, so a split whose dimension changes fails here; whether
		// the blocks agree is the task's to check.
		blk, st, err := job.TaskMapper(func(block func(*points.Block) error) error {
			return each(func(input []byte) error {
				blk, err := decodeBlock(input)
				if err != nil {
					return err
				}
				return block(blk)
			})
		})
		if err != nil {
			return nil, FrameStats{}, err
		}
		var frame []byte
		if blk.Len() > 0 {
			frame = points.AppendFrameCodec(make([]byte, 0, points.FrameV1Len(task, blk)), task, blk, codec)
		}
		st.MapOut, st.OutputBytes = int64(blk.Len()), int64(len(frame))
		return [][]byte{frame}, st, nil
	}
	return buildFrames(func(emit EmitPoint) (st FrameStats, err error) {
		scratch := new(points.Block) // every split's frames decode into it
		err = each(func(input []byte) error {
			n, err := points.WalkFrames(input, scratch, func(row []float64) error { return job.Mapper(row, emit) })
			st.MapIn += int64(n)
			return err
		})
		return st, err
	}, job.Accumulators, job.Combiner, max(reducers, 1), codec)
}

// AssembleFrames decodes frame streams into per-partition blocks,
// appending in stream order — zero allocation per point, one block per
// distinct partition, each allocated once, at the rows the frames' headers
// count for it. Exported so frame consumers outside the engine (the rpcmr
// master, pipeline drivers) decode output streams the same way reduce tasks
// do.
func AssembleFrames(streams [][]byte) (map[int]*points.Block, error) {
	type size struct{ rows, dim int }
	sizes := make(map[int]size)
	for _, stream := range streams {
		for rest := stream; len(rest) > 0; {
			p, count, dim, n, err := points.FrameHeader(rest)
			if err != nil {
				return nil, fmt.Errorf("mapreduce: bad frame: %w", err)
			}
			rest = rest[n:]
			sz := sizes[p]
			if sz.rows == 0 {
				sz.dim = dim
			}
			sz.rows += count
			sizes[p] = sz
		}
	}
	parts := make(map[int]*points.Block, len(sizes))
	for p, sz := range sizes {
		parts[p] = points.NewBlock(sz.dim, sz.rows)
	}
	for _, stream := range streams {
		for rest := stream; len(rest) > 0; {
			// Peek the owning partition, then decode straight into its block.
			p, _, _, _, _ := points.FrameHeader(rest)
			var err error
			if _, rest, err = points.DecodeFrame(parts[p], rest); err != nil {
				return nil, fmt.Errorf("mapreduce: bad frame: %w", err)
			}
		}
	}
	return parts, nil
}

// decodeBlock decodes every frame of stream, whatever partition it names,
// into one block, allocated once at the rows the frames' headers count.
func decodeBlock(stream []byte) (*points.Block, error) {
	rows, dim := 0, 0
	for rest := stream; len(rest) > 0; {
		_, count, d, n, err := points.FrameHeader(rest)
		if err != nil {
			return nil, err
		}
		if rows == 0 {
			dim = d
		}
		rows += count
		rest = rest[n:]
	}
	blk := points.NewBlock(dim, rows)
	for rest := stream; len(rest) > 0; {
		var err error
		if _, rest, err = points.DecodeFrame(blk, rest); err != nil {
			return nil, err
		}
	}
	return blk, nil
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
// below the group's sums. The tasks start in LargestFirst order.
func WholeInput(inputs [][]*points.Block) RowFeed {
	return RowFeed{whole: inputs}
}

// LargestFirst is the order a task job's tasks start in, on either
// executor: by descending input rows, ties by index. A task's work grows
// with its input, so the longest tasks start first and the round does not
// wait on a large task that started last. The result is keyed by task
// index whatever the order.
func LargestFirst(rows []int) []int {
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(rows[b], rows[a]) })
	return order
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

// FrameJob is what a job computes, in one of two shapes (Check). A row job
// routes the rows of its Feed by Mapper into per-partition Accumulators
// (nil means Staging), each sealed block optionally passes through
// Combiner, and the shuffled frames are reduced by Folder's per-partition
// folds, a frame at a time. The sides mirror each other: rows arrive one at
// a time in an Accumulator, frames in a FrameFold, and an operator that
// needs everything at once has the rows staged (Staging + Combiner) and
// the frames assembled (Assembled). A reduce task holds what its folds do
// plus one frame of decode scratch. A task job is a WholeInput feed and a
// TaskMapper alone: it is map-only, and its result is its tasks' blocks.
type FrameJob struct {
	Feed         RowFeed
	Mapper       RowMapper
	TaskMapper   TaskMapper
	Accumulators *Accumulators
	Combiner     FrameCombiner
	Folder       FrameFolder
}

// Check is the one rule of what a job is, which every executor applies: a
// row job has Mapper and Folder and no TaskMapper, a task job (whole) has
// TaskMapper and none of the others. Anything else is an error.
func (job FrameJob) Check() (whole bool, err error) {
	whole = job.TaskMapper != nil && job.Mapper == nil && job.Folder == nil && job.Accumulators == nil && job.Combiner == nil
	if !whole && (job.Mapper == nil || job.TaskMapper != nil || job.Folder == nil) {
		err = fmt.Errorf("mapreduce: a job is a mapper with a folder, or a task mapper alone")
	}
	return whole, err
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
// folded them, and the blocks the reduce folds finish are the job's result
// as they are: in process nothing seals them only to decode them again.
// Each phase is timed, counted (mr.* counters; the
// shuffle-byte counter reports frame payload bytes, header + coordinates),
// traced and bridged into cfg.Metrics. A task job stops after its map
// phase: each task's block is the result under its index, as it is, and its
// v1 frame length (points.FrameV1Len) is mr.output.bytes, never shuffle.
func RunFrames(ctx context.Context, cfg Config, job FrameJob) (*FrameResult, error) {
	whole, err := job.Check()
	if err == nil && whole != (job.Feed.feed == nil) {
		err = fmt.Errorf("mapreduce: a row feed goes with a mapper, a whole input with a task mapper")
	}
	if err != nil {
		return nil, fmt.Errorf("mapreduce: %s: %w", cfg.Name, err)
	}
	units := job.Feed.units
	cfg = cfg.withDefaults()
	// A map task is a worker's share of the feed's units (see RowFeed).
	share := max((units+cfg.Workers-1)/cfg.Workers, 1)
	tasks := (units + share - 1) / share
	var order []int // the map tasks in the order they start; nil: by index
	if whole {
		tasks, cfg.Reducers = len(job.Feed.whole), 0
		rows := make([]int, tasks)
		for task, input := range job.Feed.whole {
			for _, blk := range input {
				rows[task] += blk.Len()
			}
		}
		order = LargestFirst(rows)
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
	// A row task's stream for reducer r is outputs[task][r], a task's block returned[task].
	outputs, returned := make([][][]byte, tasks), make([]*points.Block, tasks)
	st, err := runPhase(mapCtx, cfg, "map", tasks, order, func(task int) (st FrameStats, err error) {
		if whole {
			blk, st, err := job.TaskMapper(func(each func(*points.Block) error) error {
				for _, blk := range job.Feed.whole[task] {
					if err := each(blk); err != nil {
						return err
					}
				}
				return nil
			})
			if err == nil && blk.Len() > 0 {
				returned[task] = blk
				st.MapOut, st.OutputBytes = int64(blk.Len()), int64(points.FrameV1Len(task, blk))
			}
			return st, err
		}
		outputs[task], st, err = buildFrames(func(emit EmitPoint) (FrameStats, error) {
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

	// A task job's output is its tasks' blocks, a row job's the blocks its
	// reduce folds finished, both handed over as they are.
	blocks := make(map[int]*points.Block)
	for task, blk := range returned {
		if blk != nil {
			blocks[task] = blk
		}
	}
	if !whole {
		// --- Shuffle -----------------------------------------------------
		// Frames are already partitioned per reducer when map tasks seal
		// them, so the in-memory shuffle is zero-copy and this phase is a
		// boundary only: a span.
		_, shuffleSpan := telemetry.StartSpan(ctx, "shuffle")
		shuffleStart := time.Now()
		shuffleSpan.End()
		timing.Shuffle = time.Since(shuffleStart)

		// --- Reduce ------------------------------------------------------
		// Each task is reduceFrames over reducer r's streams, in map-task
		// order. Partition p is reducer p mod Reducers' alone, so the
		// tasks' outputs are disjoint.
		redCtx, reduceSpan := telemetry.StartSpan(ctx, "reduce", telemetry.A("tasks", cfg.Reducers))
		reduceStart := time.Now()
		reduced := make([]map[int]*points.Block, cfg.Reducers)
		redStats, err := runPhase(redCtx, cfg, "reduce", cfg.Reducers, nil, func(r int) (st FrameStats, err error) {
			in := make([][]byte, tasks)
			for task, out := range outputs {
				in[task] = out[r]
			}
			reduced[r], st, err = reduceFrames(in, job)
			return st, err
		})
		reduceSpan.End()
		if err != nil {
			return fail(err)
		}
		timing.Reduce = time.Since(reduceStart)
		st.Add(redStats)
		for _, out := range reduced {
			maps.Copy(blocks, out)
		}
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
// tallies. The tasks start in order (nil: by index). A task runs once: in
// process a failure repeats on a second attempt (a bad row, a fold's full
// overflow disk), so the first error fails the job.
func runPhase(ctx context.Context, cfg Config, kind string, n int, order []int, task func(i int) (FrameStats, error)) (FrameStats, error) {
	var mu sync.Mutex
	var agg FrameStats
	err := runTasks(ctx, cfg.Workers, n, func(worker, i int) error {
		if order != nil {
			i = order[i]
		}
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
