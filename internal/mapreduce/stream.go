package mapreduce

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/points"
)

// The reduce side: one route. A reduce task's frames are decoded one at a
// time out of the sealed in-memory streams the map tasks left it, and
// absorbed into a FrameFold per partition, so the task's working set is
// what its folds keep plus one frame of scratch. The fold is the only
// pluggable part: a bounded one (skyline.BudgetedFold) keeps the task near
// its budget regardless of partition size; Assembled is the fold of an
// operator that needs the whole partition at once.

// FrameFold is incremental per-partition reduce state: Absorb is called
// once per arriving frame block (the block is scratch — copy what must
// survive), then Finish returns the fold's result, which the engine emits
// under the fold's partition. Implementations need not be safe for
// concurrent use; the engine creates one fold per partition and drives it
// from a single goroutine. A fold that holds resources until Finish also
// implements io.Closer: the engine closes every fold it created when the
// task returns, finished or not. The two in use are *skyline.BudgetedFold
// and Assembled's.
type FrameFold interface {
	Absorb(blk *points.Block) error
	Finish() (*points.Block, error)
}

// SealedFold is a FrameFold with a second way in, for a frame that is a
// skyline (see NewAccumulators): AbsorbSealed need not compare the
// frame's rows with each other, only with what the fold held before it.
// *skyline.BudgetedFold is one.
type SealedFold interface {
	FrameFold
	AbsorbSealed(blk *points.Block) error
}

// SizedFold is a FrameFold that can be told, before its first frame, how
// many rows its frames hold in all, so that it sizes what it keeps once
// instead of growing it as frames arrive. The reduce body reads every
// frame header before it folds a frame, and tells each fold that is one.
// *skyline.BudgetedFold and Assembled's folds are.
type SizedFold interface {
	FrameFold
	Expect(rows int)
}

// FrameFolder creates the fold for one partition — called once for each
// partition a reduce task's frames hold rows of, in ascending order, before
// the task folds its first frame. Must be safe for concurrent use (reduce
// tasks run in parallel).
type FrameFolder func(partition int) FrameFold

// FoldPeaker is optionally implemented by folds that track their
// working-set high-water mark; the engine sums the peaks into
// FrameStats.PeakBytes / FrameResult.ReducerPeakBytes.
type FoldPeaker interface {
	PeakBytes() int64
	Passes() int
}

// Assembled is the folder of an operator over the whole partition — the
// reduce-side twin of Staging: a partition's frames are staged into one
// block as they arrive and op, the same whole-block operator a job may run
// map side as its Combiner, is applied to it at Finish; its result is the
// partition's output. A nil op concatenates. Frames of differing dimension
// for one partition are an error. The fold holds the partition, and reports
// it as its peak.
func Assembled(op FrameCombiner) FrameFolder {
	return func(partition int) FrameFold {
		return &assembled{partition: partition, op: op, blk: points.NewBlock(0, 0)}
	}
}

type assembled struct {
	partition int
	op        FrameCombiner
	blk       *points.Block
	expect    int   // rows Expect announced, reserved at the first frame
	bytes     int64 // staged so far; op may shrink blk in place
}

func (a *assembled) Expect(rows int) { a.expect = rows }

func (a *assembled) Absorb(blk *points.Block) error {
	if a.blk.Len() > 0 && blk.Len() > 0 && blk.Dim() != a.blk.Dim() {
		return fmt.Errorf("mapreduce: partition %d: %d-dimensional frame after %d-dimensional ones", a.partition, blk.Dim(), a.blk.Dim())
	}
	if a.blk.Len() == 0 && blk.Len() > 0 && a.expect > 0 {
		a.blk, a.expect = points.NewBlock(blk.Dim(), a.expect), 0
	}
	a.blk.AppendBlock(blk)
	a.bytes += int64(blk.Len()) * int64(blk.Dim()) * 8
	return nil
}

func (a *assembled) Finish() (*points.Block, error) {
	if a.op == nil {
		return a.blk, nil
	}
	return a.op(a.partition, a.blk)
}

func (a *assembled) PeakBytes() int64 { return a.bytes }
func (a *assembled) Passes() int      { return 1 }

// ReduceFramesStream is the reduce task of an executor that ships a task's
// output (rpcmr): the one reduce-task body, reduceFrames, with its
// partitions' results sealed in ascending partition order into one output
// frame stream, allocated once at their v1 length.
func ReduceFramesStream(streams [][]byte, job FrameJob, codec points.FrameCodec) ([]byte, FrameStats, error) {
	blocks, st, err := reduceFrames(streams, job)
	if err != nil {
		return nil, st, err
	}
	ids, size := sortedInts(blocks), 0
	for _, p := range ids {
		size += points.FrameV1Len(p, blocks[p])
	}
	out := make([]byte, 0, size)
	for _, p := range ids {
		out = points.AppendFrameCodec(out, p, blocks[p], codec)
	}
	return out, st, nil
}

// reduceFrames is the one reduce-task body, shared by every executor. It
// reads the header of every frame of the sealed streams first, creates each
// partition's fold — job.Folder's — and tells every SizedFold the rows
// coming to it; then it walks the streams in order, frame by frame, through
// one block of decode scratch the size of the largest frame, folding each
// frame into its partition's fold, and finishes the folds in ascending
// partition order. It returns every non-empty result, by partition: blocks
// the folds produced, which the task's caller owns. Where every frame is a
// skyline (job's accumulators seal skylines and no Combiner rewrites them)
// a SealedFold takes each frame in by AbsorbSealed, any other fold by
// Absorb. Malformed frames and fold errors are returned, never panics.
func reduceFrames(streams [][]byte, job FrameJob) (map[int]*points.Block, FrameStats, error) {
	var st FrameStats
	rows := make(map[int]int)
	var maxFrame int64
	maxCoords := 0
	for _, rest := range streams {
		for len(rest) > 0 {
			p, count, dim, n, err := points.FrameHeader(rest)
			if err != nil {
				return nil, st, fmt.Errorf("mapreduce: bad frame: %w", err)
			}
			rest = rest[n:]
			if count == 0 {
				continue
			}
			rows[p] += count
			st.ReduceIn += int64(count)
			maxFrame = max(maxFrame, int64(n))
			maxCoords = max(maxCoords, count*dim)
		}
	}
	sealed := job.sealsSkylines()
	folds := make(map[int]FrameFold, len(rows))
	// On an error return some folds are never finished, and an unfinished
	// fold may hold an overflow file: close them all (a no-op once finished).
	defer func() {
		for _, fold := range folds {
			if c, ok := fold.(io.Closer); ok {
				c.Close()
			}
		}
	}()
	ids := sortedInts(rows)
	for _, p := range ids {
		fold := job.Folder(p)
		folds[p] = fold
		st.Groups++
		if sf, ok := fold.(SizedFold); ok {
			sf.Expect(rows[p])
		}
	}
	scratch := points.NewBlock(1, maxCoords) // room for the largest frame's coordinates
	for _, rest := range streams {
		for len(rest) > 0 {
			scratch.Clear()
			var p int
			var err error
			if p, rest, err = points.DecodeFrame(scratch, rest); err != nil {
				return nil, st, fmt.Errorf("mapreduce: bad frame: %w", err)
			}
			if scratch.Len() == 0 {
				continue
			}
			if sf, ok := folds[p].(SealedFold); ok && sealed {
				err = sf.AbsorbSealed(scratch)
			} else {
				err = folds[p].Absorb(scratch)
			}
			if err != nil {
				return nil, st, err
			}
		}
	}
	out := make(map[int]*points.Block, len(ids))
	for _, p := range ids {
		blk, err := folds[p].Finish()
		if err != nil {
			return nil, st, err
		}
		if blk.Len() > 0 {
			out[p] = blk
			st.ReduceOut += int64(blk.Len())
		}
	}
	st.Passes = 1
	st.PeakBytes = maxFrame
	for _, fold := range folds {
		if pk, ok := fold.(FoldPeaker); ok {
			st.PeakBytes += pk.PeakBytes()
			if n := pk.Passes(); n > st.Passes {
				st.Passes = n
			}
		}
	}
	return out, st, nil
}

func sortedInts[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// ---------------------------------------------------------------------------
// Chunked input: out-of-core map side

// WalkRows is the most rows a piece of a walk holds: a chunk source hands a
// map task its chunk in pieces of at most this many rows, and a cluster
// worker walks an input split's frames through scratch of as many. At d=6 a
// piece is 24 KiB, which stays in cache while its rows are routed.
const WalkRows = 512

// ChunkSource provides the input of an out-of-core job as random-access
// chunks: a map task is a run of consecutive chunks (see ChunkRows), each
// walked in turn through the task's one piece block, so neither the input
// nor a whole chunk of it exists in memory. ChunkLen(i) is chunk i's row
// count, known before its rows. WalkChunk(i, blk, fn) fills blk with
// successive pieces of chunk i, each of at most WalkRows rows, and calls fn
// once per piece; the pieces, taken in order, are the chunk's rows. blk
// arrives empty but may carry an earlier piece's capacity — the engine
// recycles piece blocks across chunks and tasks — so a source empties it
// between pieces and reserves each piece's rows at once (points.Block.Extend),
// never append-growing row by row: a task's chunk memory is then one piece,
// and nothing once recycled. fn must not keep blk or its rows, and an error
// from fn ends the walk with that error. WalkChunk must be safe for
// concurrent use and re-readable: a driver may walk a chunk (for its fit
// sample) before the map pass walks it again.
type ChunkSource interface {
	Chunks() int
	ChunkLen(i int) int
	WalkChunk(i int, blk *points.Block, fn func(piece *points.Block) error) error
}
