package mapreduce

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/points"
)

// frameLog is a job's shuffle as its reducers were handed it: per partition,
// the coordinates of every frame absorbed, in order. With Staging
// accumulators a frame is what one map task routed to the partition, rows in
// arrival order, and frames arrive in map-task order.
type frameLog struct {
	mu     sync.Mutex
	frames map[int][][]float64
}

type loggingFold struct {
	log       *frameLog
	partition int
}

func (f loggingFold) Absorb(blk *points.Block) error {
	f.log.mu.Lock()
	f.log.frames[f.partition] = append(f.log.frames[f.partition], coordsOf(blk))
	f.log.mu.Unlock()
	return nil
}

// coordsOf copies a block's coordinates out, row after row.
func coordsOf(blk *points.Block) []float64 {
	var coords []float64
	for i := 0; i < blk.Len(); i++ {
		coords = append(coords, blk.Row(i)...)
	}
	return coords
}

func (f loggingFold) Finish() (*points.Block, error) { return points.NewBlock(0, 0), nil }

// shuffleOf runs job with a logging folder and returns what crossed its
// shuffle.
func shuffleOf(t *testing.T, cfg Config, job FrameJob) map[int][][]float64 {
	t.Helper()
	log := &frameLog{frames: map[int][][]float64{}}
	job.Folder = func(p int) FrameFold { return loggingFold{log, p} }
	if _, err := RunFrames(context.Background(), cfg, job); err != nil {
		t.Fatal(err)
	}
	return log.frames
}

// lengths is the row count of each one-dimensional frame.
func lengths(frames [][]float64) []int {
	out := make([]int, len(frames))
	for i, f := range frames {
		out[i] = len(f)
	}
	return out
}

// TestTaskRule pins what a map task is: a worker's share of the input,
// ceil(units / Workers) consecutive units of the feed's own kind — rows of
// a set, chunks of a chunk source, read one at a time into at most Workers
// blocks.
func TestTaskRule(t *testing.T) {
	toZero := RowMapper(func(row []float64, emit EmitPoint) error {
		emit(0, row)
		return nil
	})
	// runs cuts 0 … n−1 into consecutive runs of size.
	runs := func(n, size int) [][]float64 {
		var out [][]float64
		for lo := 0; lo < n; lo += size {
			var run []float64
			for i := lo; i < min(lo+size, n); i++ {
				run = append(run, float64(i))
			}
			out = append(out, run)
		}
		return out
	}
	const per = 5
	for _, tc := range []struct {
		chunked        bool
		units, workers int
		task           int // the task length the rule gives
	}{
		{false, 10, 4, 3}, // ceil(10/3) = 4 tasks, the last one row
		{false, 9, 4, 3},  // 3 tasks: fewer than workers
		{false, 3, 8, 1},
		{false, 1000, 2, 500},
		{false, 10, 3, 4},
		{true, 16, 2, 8},
		{true, 7, 3, 3},
		{true, 2, 4, 1}, // chunks < Workers: one task per chunk
		{true, 15, 3, 5},
		{true, 16, 16, 1},
	} {
		name := fmt.Sprintf("chunked=%v/units=%d/workers=%d", tc.chunked, tc.units, tc.workers)
		cfg := Config{Name: "rule", Workers: tc.workers, Reducers: 2}
		if !tc.chunked {
			data := make(points.Set, tc.units)
			for i := range data {
				data[i] = points.Point{float64(i)}
			}
			got := shuffleOf(t, cfg, FrameJob{Feed: SetRows(data), Mapper: toZero})[0]
			if want := runs(tc.units, tc.task); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: tasks of %v rows (or other rows), want %v", name, lengths(got), lengths(want))
			}
			continue
		}
		src := &blockCounter{chunkSrc: chunkSrc{chunks: tc.units, per: per, d: 1}, blocks: map[*points.Block]bool{}}
		var want [][]float64
		for lo := 0; lo < tc.units; lo += tc.task {
			run := points.NewBlock(1, 0)
			for c := lo; c < min(lo+tc.task, tc.units); c++ {
				if err := appendChunk(src.chunkSrc, c, run); err != nil {
					t.Fatal(err)
				}
			}
			want = append(want, coordsOf(run))
		}
		if got := shuffleOf(t, cfg, FrameJob{Feed: ChunkRows(src), Mapper: toZero})[0]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: tasks of %v rows (or other rows), want %v", name, lengths(got), lengths(want))
		}
		if len(src.blocks) > tc.workers || src.nonEmpty > 0 {
			t.Errorf("%s: %d chunk blocks live (want <= %d workers), %d reads into a block that was not empty",
				name, len(src.blocks), tc.workers, src.nonEmpty)
		}
	}
}

// TestShuffleIsAFunctionOfInputAndWorkers: two runs of one job, combining
// windows and all, put the same frames across the shuffle — rows, their order
// inside a frame and the frames' order.
func TestShuffleIsAFunctionOfInputAndWorkers(t *testing.T) {
	data, route := diffInput(11, 6000, 5, false)
	var blocks []*points.Block
	for lo := 0; lo < len(data); lo += 500 {
		blk, _ := points.BlockOf(data[lo:min(lo+500, len(data))])
		blocks = append(blocks, blk)
	}
	mapper := RowMapper(func(row []float64, emit EmitPoint) error {
		emit(route(row), row)
		return nil
	})
	for _, workers := range []int{1, 3, 4} {
		cfg := Config{Name: "same", Workers: workers, Reducers: 3}
		for name, feed := range map[string]func() RowFeed{
			"set":    func() RowFeed { return SetRows(data) },
			"chunks": func() RowFeed { return ChunkRows(blockChunks(blocks)) },
		} {
			first := shuffleOf(t, cfg, FrameJob{Feed: feed(), Mapper: mapper, Accumulators: windows})
			again := shuffleOf(t, cfg, FrameJob{Feed: feed(), Mapper: mapper, Accumulators: windows})
			if len(first) == 0 || !reflect.DeepEqual(first, again) {
				t.Errorf("%s, %d workers: two runs shuffled different frames", name, workers)
			}
		}
	}
}

// oneSplit is a map task's input that is one split.
func oneSplit(stream []byte) func(int) ([]byte, error) {
	return func(int) ([]byte, error) { return stream, nil }
}

// TestMapFramesFoldsSplitsWarm: a map task whose input arrives as several
// splits, each in the buffer the one before came in, folds them all through
// the one set of windows it borrowed, and so seals what the same rows seal as
// one task in process — the bytes and the tallies — where a task per split
// ships a local skyline per split. An empty split, or a source that fails,
// fails the task.
func TestMapFramesFoldsSplitsWarm(t *testing.T) {
	data, route := diffInput(17, 4000, 4, false)
	mapper := RowMapper(func(row []float64, emit EmitPoint) error {
		emit(route(row), row)
		return nil
	})
	job := FrameJob{Mapper: mapper, Accumulators: windows, Folder: Assembled(nil)}
	want, wantStats, err := buildFrames(func(emit EmitPoint) (FrameStats, error) {
		rows, err := SetRows(data).feed(0, len(data), mapper, emit)
		return FrameStats{MapIn: int64(rows)}, err
	}, windows, nil, 3, points.FrameDefault)
	if err != nil {
		t.Fatal(err)
	}
	var splits [][]byte
	for lo := 0; lo < len(data); lo += 1000 {
		frame, err := points.AppendFrameRows(nil, 0, data[lo:min(lo+1000, len(data))])
		if err != nil {
			t.Fatal(err)
		}
		splits = append(splits, frame)
	}
	var buf []byte
	inOneBuffer := func(i int) ([]byte, error) {
		buf = append(buf[:0], splits[i]...)
		return buf, nil
	}
	got, gotStats, err := MapFrames(job, len(splits), inOneBuffer, 0, 3, points.FrameDefault)
	if err != nil {
		t.Fatal(err)
	}
	gotStats.CombineNanos, wantStats.CombineNanos = 0, 0
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("a task of %d splits sealed %d bytes (%+v); the same rows as one task in process, %d (%+v)",
			len(splits), gotStats.ShuffleBytes, gotStats, wantStats.ShuffleBytes, wantStats)
	}
	var cold int64
	for _, s := range splits {
		_, st, err := MapFrames(job, 1, oneSplit(s), 0, 3, points.FrameDefault)
		if err != nil {
			t.Fatal(err)
		}
		cold += st.ShuffleBytes
	}
	if cold <= gotStats.ShuffleBytes {
		t.Errorf("a task per split shipped %d bytes, the warm task %d: the windows' warmth is worth nothing here", cold, gotStats.ShuffleBytes)
	}
	for name, split := range map[string]func(int) ([]byte, error){
		"an empty split": func(i int) ([]byte, error) {
			if i == 2 {
				return nil, nil
			}
			return splits[i], nil
		},
		"a failed fetch": func(i int) ([]byte, error) {
			if i == 2 {
				return nil, fmt.Errorf("connection lost")
			}
			return splits[i], nil
		},
	} {
		if _, _, err := MapFrames(job, len(splits), split, 0, 3, points.FrameDefault); err == nil {
			t.Errorf("%s: the task did not fail", name)
		}
	}
	if _, _, err := MapFrames(job, 0, inOneBuffer, 0, 3, points.FrameDefault); err == nil {
		t.Error("a task of no splits did not fail")
	}
}

// blockChunks serves blocks as chunks.
type blockChunks []*points.Block

func (b blockChunks) Chunks() int { return len(b) }

func (b blockChunks) ChunkLen(i int) int { return b[i].Len() }

func (b blockChunks) WalkChunk(i int, blk *points.Block, fn func(*points.Block) error) error {
	for lo := 0; lo < b[i].Len(); lo += WalkRows {
		blk.Clear()
		blk.AppendBlock(b[i].Slice(lo, min(lo+WalkRows, b[i].Len())))
		if err := fn(blk); err != nil {
			return err
		}
	}
	return nil
}
