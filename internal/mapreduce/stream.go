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

// FrameFolder creates the fold for one partition — called lazily the
// first time a reduce task sees a frame for that partition. Must be safe
// for concurrent use (reduce tasks run in parallel).
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
	bytes     int64 // staged so far; op may shrink blk in place
}

func (a *assembled) Absorb(blk *points.Block) error {
	if a.blk.Len() > 0 && blk.Len() > 0 && blk.Dim() != a.blk.Dim() {
		return fmt.Errorf("mapreduce: partition %d: %d-dimensional frame after %d-dimensional ones", a.partition, blk.Dim(), a.blk.Dim())
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

// ReduceFramesStream is the one reduce-task body, shared by every executor:
// it walks every sealed stream in order, frame by frame, folding each frame
// into its partition's fold — job.Folder's — then finishes the folds in
// ascending partition order and seals each one's result into one output
// frame stream. Where every frame is a skyline (job's accumulators seal
// skylines and no Combiner rewrites them) a SealedFold takes each frame in
// by AbsorbSealed, any other fold by Absorb. Malformed frames and fold
// errors are returned, never panics.
func ReduceFramesStream(streams [][]byte, job FrameJob, codec points.FrameCodec) ([]byte, FrameStats, error) {
	var st FrameStats
	sealed := job.sealsSkylines()
	folds := make(map[int]FrameFold)
	// On an error return some folds are never finished, and an unfinished
	// fold may hold an overflow file: close them all (a no-op once finished).
	defer func() {
		for _, fold := range folds {
			if c, ok := fold.(io.Closer); ok {
				c.Close()
			}
		}
	}()
	scratch := points.NewBlock(0, 0)
	var maxFrame int64
	for _, rest := range streams {
		for len(rest) > 0 {
			n, err := points.FrameLen(rest)
			if err != nil {
				return nil, st, fmt.Errorf("mapreduce: bad frame: %w", err)
			}
			frame := rest[:n]
			rest = rest[n:]
			p, count, err := points.FrameCount(frame)
			if err != nil {
				return nil, st, fmt.Errorf("mapreduce: bad frame: %w", err)
			}
			if count == 0 {
				continue
			}
			scratch.Clear()
			if _, _, err := points.DecodeFrame(scratch, frame); err != nil {
				return nil, st, fmt.Errorf("mapreduce: bad frame: %w", err)
			}
			fold := folds[p]
			if fold == nil {
				fold = job.Folder(p)
				folds[p] = fold
				st.Groups++
			}
			st.ReduceIn += int64(count)
			if sf, ok := fold.(SealedFold); ok && sealed {
				err = sf.AbsorbSealed(scratch)
			} else {
				err = fold.Absorb(scratch)
			}
			if err != nil {
				return nil, st, err
			}
			if fb := int64(len(frame)); fb > maxFrame {
				maxFrame = fb
			}
		}
	}
	var out []byte
	for _, p := range sortedInts(folds) {
		blk, err := folds[p].Finish()
		if err != nil {
			return nil, st, err
		}
		if blk.Len() > 0 {
			out = points.AppendFrameCodec(out, p, blk, codec)
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
