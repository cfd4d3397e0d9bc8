package mapreduce

import (
	"testing"

	"repro/internal/points"
)

// TestReplayAPISignatures is compile-only: it assigns every symbol of
// replay_api.go to a variable of the exact type the frozen bench/replay.go
// compiles against, so the engine's real surface can change around them and
// a change to one of these is a build failure here, not in the nested module
// root `go test ./...` never compiles.
func TestReplayAPISignatures(t *testing.T) {
	var (
		_ func([][]byte, int, FrameMapper, FrameCombiner, points.FrameCodec) ([][]byte, FrameStats, error) = BuildFrames
		_ func([][]byte, FrameReducer, points.FrameCodec) ([]byte, FrameStats, error)                      = ReduceFrames

		// The two interfaces, in both directions: identical method sets.
		_ interface {
			MapFrame(record []byte, emit EmitPoint) error
		} = FrameMapper(nil)
		_ FrameMapper = (interface {
			MapFrame(record []byte, emit EmitPoint) error
		})(nil)
		_ interface {
			ReduceFrame(partition int, block *points.Block, emit EmitPoint) error
		} = FrameReducer(nil)
		_ FrameReducer = (interface {
			ReduceFrame(partition int, block *points.Block, emit EmitPoint) error
		})(nil)

		// The two adapters: their underlying function types, and that they
		// implement the interfaces.
		_ func(record []byte, emit EmitPoint) error                      = FrameMapperFunc(nil)
		_ func(partition int, block *points.Block, emit EmitPoint) error = FrameReducerFunc(nil)
		_ FrameMapper                                                    = FrameMapperFunc(nil)
		_ FrameReducer                                                   = FrameReducerFunc(nil)

		// What those signatures mention, and the replay calls, of the
		// engine's own surface.
		_ func(partition int, coords []float64)                           = EmitPoint(nil)
		_ func(partition int, block *points.Block) (*points.Block, error) = FrameCombiner(nil)
		_ func(streams [][]byte) (map[int]*points.Block, error)           = AssembleFrames
	)
}
