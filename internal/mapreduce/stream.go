package mapreduce

import (
	"fmt"
	"io"

	"repro/internal/points"
)

// Streaming reduce: the out-of-core half of the frame engine. The
// assemble-everything path (ReduceFrames) materializes each partition's
// full block before reducing it, which bounds a job by one reducer's
// memory. The streaming path replaces the assembled block with a
// FrameFold per partition: frames are decoded one at a time — straight
// off the spill file via frameSpillReader — and absorbed incrementally,
// so a reduce task's working set is the folds' bounded state plus one
// frame of scratch, regardless of partition size.

// FrameFold is incremental per-partition reduce state: Absorb is called
// once per arriving frame block (the block is scratch — copy what must
// survive), then Finish returns the fold's result, which the engine emits
// under the fold's partition. Implementations need not be safe for
// concurrent use; the engine creates one fold per partition and drives it
// from a single goroutine. A fold that holds resources until Finish also
// implements io.Closer: the engine closes every fold it created when the
// task returns, finished or not. *skyline.BudgetedFold is the one in use.
type FrameFold interface {
	Absorb(blk *points.Block) error
	Finish() (*points.Block, error)
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

// FrameSource yields one shuffle frame at a time; io.EOF ends the
// stream. It abstracts spilled runs (frameSpillReader) and in-memory
// sealed streams so the streaming reduce path treats both identically.
type FrameSource interface {
	Next() ([]byte, error)
}

// StreamFrameSource adapts one sealed in-memory frame stream to a
// FrameSource — for callers outside the engine (rpcmr workers) feeding
// ReduceFramesStream from transport buffers.
func StreamFrameSource(stream []byte) FrameSource {
	return &memFrameSource{rest: stream}
}

// memFrameSource slices one sealed in-memory stream back into frames.
type memFrameSource struct {
	rest []byte
}

func (m *memFrameSource) Next() ([]byte, error) {
	if len(m.rest) == 0 {
		return nil, io.EOF
	}
	n, err := points.FrameLen(m.rest)
	if err != nil {
		return nil, err
	}
	frame := m.rest[:n]
	m.rest = m.rest[n:]
	return frame, nil
}

// ReduceFramesStream drains every source in order, folding each frame
// into its partition's fold, then finishes the folds in ascending
// partition order and seals the emissions into one output frame stream.
// Shared by the in-process engine's streaming reduce tasks and the rpcmr
// workers. Sources are closed by the caller.
func ReduceFramesStream(srcs []FrameSource, folder FrameFolder, codec points.FrameCodec) ([]byte, FrameStats, error) {
	var st FrameStats
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
	for _, src := range srcs {
		for {
			frame, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, st, err
			}
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
				fold = folder(p)
				folds[p] = fold
				st.Groups++
			}
			st.ReduceIn += int64(count)
			if err := fold.Absorb(scratch); err != nil {
				return nil, st, err
			}
			if fb := int64(len(frame)); fb > maxFrame {
				maxFrame = fb
			}
		}
	}
	out, sealed, err := buildFrames(func(emit EmitPoint) (int, error) {
		for _, p := range sortedInts(folds) {
			blk, err := folds[p].Finish()
			if err != nil {
				return 0, err
			}
			for i := 0; i < blk.Len(); i++ {
				emit(p, blk.Row(i))
			}
		}
		return 0, nil
	}, Staging, nil, 1, codec)
	if err != nil {
		return nil, st, err
	}
	st.ReduceOut = sealed.ShuffleRecs
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
	return out[0], st, nil
}

func sortedInts[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort; partition counts are small
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// runFrameReduceTaskStream is the streaming counterpart of
// runFrameReduceTask: reducer r's frames are read from memory or spill
// one frame at a time and folded, never assembled.
func runFrameReduceTaskStream(cfg Config, r int, outputs []frameTaskOutput, folder FrameFolder) ([]byte, FrameStats, error) {
	var srcs []FrameSource
	var open []*frameSpillReader
	defer func() {
		for _, sr := range open {
			sr.Close()
		}
	}()
	for _, out := range outputs {
		if out.files != nil {
			if r < len(out.files) && out.files[r] != "" {
				sr, err := openFrameSpill(out.files[r])
				if err != nil {
					return nil, FrameStats{}, fmt.Errorf("mapreduce: %s: opening frame spill: %w", cfg.Name, err)
				}
				open = append(open, sr)
				srcs = append(srcs, sr)
			}
			continue
		}
		if r < len(out.streams) && len(out.streams[r]) > 0 {
			srcs = append(srcs, &memFrameSource{rest: out.streams[r]})
		}
	}
	return ReduceFramesStream(srcs, folder, cfg.Codec)
}

// ---------------------------------------------------------------------------
// Chunked input: out-of-core map side

// ChunkSource provides the input of an out-of-core job as random-access
// chunks: a map task is a run of consecutive chunks (see ChunkRows), each
// read in turn directly into the task's one block, so the full input never
// exists in memory. The block ReadChunk is handed is empty but may carry an
// earlier chunk's capacity — the engine recycles chunk blocks across chunks
// and tasks — so a source reserves the chunk's rows once
// (points.Block.Extend) and never append-grows row by row: a task's chunk
// memory is then one chunk, and nothing once recycled. ReadChunk must be
// safe for concurrent use and re-readable (task retry).
type ChunkSource interface {
	Chunks() int
	ReadChunk(i int, blk *points.Block) error
}
