package mapreduce

import "repro/internal/points"

// The replay API. No job, executor or binary of this repository calls
// anything in this file: these are the symbols the frozen benchmark's staged
// replay (bench/replay.go) compiles against, kept with their signatures —
// pinned by TestReplayAPISignatures — until ROADMAP item 1 retires the
// replay. The engine's real surface is FrameJob, RunFrames, MapFrames,
// ReduceFramesStream and AssembleFrames; read and change that without
// looking here.

// FrameMapper maps one encoded input record, decoding it itself. Jobs take
// rows (RowMapper) on every executor; this is BuildFrames' mapper only. Must
// be safe for concurrent use.
type FrameMapper interface {
	MapFrame(record []byte, emit EmitPoint) error
}

// FrameMapperFunc adapts a function to the FrameMapper interface.
type FrameMapperFunc func(record []byte, emit EmitPoint) error

// MapFrame implements FrameMapper.
func (f FrameMapperFunc) MapFrame(record []byte, emit EmitPoint) error { return f(record, emit) }

// FrameReducer folds one partition's fully assembled block into zero or
// more output points. Jobs reduce through a FrameFolder (Assembled, for an
// operator over the whole partition); this is ReduceFrames' reducer only.
// Must be safe for concurrent use.
type FrameReducer interface {
	ReduceFrame(partition int, block *points.Block, emit EmitPoint) error
}

// FrameReducerFunc adapts a function to the FrameReducer interface.
type FrameReducerFunc func(partition int, block *points.Block, emit EmitPoint) error

// ReduceFrame implements FrameReducer.
func (f FrameReducerFunc) ReduceFrame(partition int, block *points.Block, emit EmitPoint) error {
	return f(partition, block, emit)
}

// BuildFrames runs a frame mapper (and optional block combiner) over one
// map task's records, staging each partition's rows, and returns one sealed
// frame stream per reducer plus the task's tallies.
func BuildFrames(records [][]byte, reducers int, mapper FrameMapper, combiner FrameCombiner, codec points.FrameCodec) ([][]byte, FrameStats, error) {
	return buildFrames(func(emit EmitPoint) (FrameStats, error) {
		for _, rec := range records {
			if err := mapper.MapFrame(rec, emit); err != nil {
				return FrameStats{}, err
			}
		}
		return FrameStats{MapIn: int64(len(records))}, nil
	}, Staging, combiner, max(reducers, 1), codec)
}

// ReduceFrames assembles per-partition blocks from the given frame
// streams, runs the reducer on each partition in ascending id order, and
// seals the emitted points back into one output frame stream. codec picks
// the output frames' wire codec.
func ReduceFrames(streams [][]byte, reducer FrameReducer, codec points.FrameCodec) ([]byte, FrameStats, error) {
	var st FrameStats
	parts, err := AssembleFrames(streams)
	if err != nil {
		return nil, st, err
	}
	// One "reducer" so every output partition lands in one stream,
	// ascending by partition id.
	out, sealed, err := buildFrames(func(emit EmitPoint) (FrameStats, error) {
		for _, p := range sortedInts(parts) {
			blk := parts[p]
			st.Groups++
			st.ReduceIn += int64(blk.Len())
			if err := reducer.ReduceFrame(p, blk, emit); err != nil {
				return FrameStats{}, err
			}
		}
		return FrameStats{}, nil
	}, Staging, nil, 1, codec)
	if err != nil {
		return nil, st, err
	}
	st.ReduceOut = sealed.ShuffleRecs
	return out[0], st, nil
}
