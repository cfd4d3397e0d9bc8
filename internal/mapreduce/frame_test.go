package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/points"
	"repro/internal/telemetry"
)

// frameTestData builds a deterministic point set with duplicates.
func frameTestData(n, d int, seed int64) points.Set {
	rng := rand.New(rand.NewSource(seed))
	set := make(points.Set, 0, n)
	for i := 0; i < n; i++ {
		p := make(points.Point, d)
		for j := range p {
			p[j] = float64(rng.Intn(50)) // coarse grid → duplicates
		}
		set = append(set, p)
	}
	// Exact duplicates of the first few points.
	for i := 0; i < n/10 && i < len(set); i++ {
		dup := make(points.Point, d)
		copy(dup, set[i])
		set = append(set, dup)
	}
	return set
}

// identityFrameJob routes each point to partition coords[0] mod parts and
// concatenates each partition's frames in the reducer — shuffle machinery
// only.
func identityFrameJob(parts int) (RowMapper, FrameFolder) {
	mapper := RowMapper(func(p []float64, emit EmitPoint) error {
		emit(int(p[0])%parts, p)
		return nil
	})
	return mapper, Assembled(nil)
}

// routedDirectly is the identity job's result worked out without an
// engine: every row under the partition its first coordinate routes it to.
func routedDirectly(data points.Set, parts int) map[int]points.Set {
	out := make(map[int]points.Set)
	for _, p := range data {
		id := int(p[0]) % parts
		out[id] = append(out[id], p)
	}
	return out
}

func sortSet(s points.Set) {
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func requireSameSets(t *testing.T, want, got map[int]points.Set) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("partition count: want %d, got %d", len(want), len(got))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("partition %d missing", id)
		}
		if len(w) != len(g) {
			t.Fatalf("partition %d: want %d points, got %d", id, len(w), len(g))
		}
		sortSet(w)
		sortSet(g)
		for i := range w {
			for k := range w[i] {
				if w[i][k] != g[i][k] {
					t.Fatalf("partition %d point %d differs: %v vs %v", id, i, w[i], g[i])
				}
			}
		}
	}
}

// TestRunFramesMatchesClassic shuffles a dataset (duplicates included)
// through the engine and requires, per partition, exactly the multiset a
// direct grouping of the rows gives.
func TestRunFramesMatchesClassic(t *testing.T) {
	data := frameTestData(2000, 4, 1)
	const parts, reducers = 7, 3
	mapper, folder := identityFrameJob(parts)

	t.Run("memory", func(t *testing.T) {
		res, err := RunFrames(context.Background(),
			Config{Name: "frames", Workers: 4, Reducers: reducers},
			FrameJob{Feed: SetRows(data), Mapper: mapper, Folder: folder})
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int]points.Set)
		for id, blk := range res.Blocks {
			got[id] = blk.ToSet()
		}
		requireSameSets(t, routedDirectly(data, parts), got)

		if res.Counters.Get(CounterShuffle) != int64(len(data)) {
			t.Errorf("shuffle records = %d, want %d", res.Counters.Get(CounterShuffle), len(data))
		}
		// Frame payload bytes: strictly more than raw coords (headers),
		// far less than 2× coords.
		coords := int64(len(data) * 4 * 8)
		if b := res.Counters.Get(CounterShuffleBytes); b <= coords || b > coords*2 {
			t.Errorf("shuffle bytes = %d, want in (%d, %d]", b, coords, coords*2)
		}
	})
}

// TestRunFramesCombiner checks the combiner runs on assembled blocks
// map-side and shrinks what crosses the shuffle.
func TestRunFramesCombiner(t *testing.T) {
	data := frameTestData(1000, 3, 2)
	mapper, folder := identityFrameJob(4)
	// Combiner keeps only the first point of each block.
	combiner := func(partition int, blk *points.Block) (*points.Block, error) {
		if blk.Len() > 1 {
			blk.Truncate(1)
		}
		return blk, nil
	}
	res, err := RunFrames(context.Background(),
		Config{Name: "comb", Workers: 2, Reducers: 2},
		FrameJob{Feed: SetRows(data), Mapper: mapper, Combiner: combiner, Folder: folder})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CounterCombineIn) != int64(len(data)) {
		t.Errorf("combine in = %d, want %d", res.Counters.Get(CounterCombineIn), len(data))
	}
	shuffled := res.Counters.Get(CounterShuffle)
	if shuffled >= int64(len(data)) || shuffled == 0 {
		t.Errorf("combiner did not shrink shuffle: %d of %d", shuffled, len(data))
	}
	if res.Counters.Get(CounterCombineOut) != shuffled {
		t.Errorf("combine out %d != shuffle records %d", res.Counters.Get(CounterCombineOut), shuffled)
	}
}

// TestRunFramesErrors covers mapper, combiner and reducer failures plus
// the negative-partition guard: errors, never panics.
func TestRunFramesErrors(t *testing.T) {
	input := points.Set{{1, 2}}
	okMapper, okFolder := identityFrameJob(2)
	boom := errors.New("boom")

	cases := []struct {
		name     string
		mapper   RowMapper
		combiner FrameCombiner
		folder   FrameFolder
	}{
		{"mapper", func(row []float64, emit EmitPoint) error { return boom }, nil, okFolder},
		{"combiner", okMapper, func(int, *points.Block) (*points.Block, error) { return nil, boom }, okFolder},
		{"reducer", okMapper, nil, Assembled(func(int, *points.Block) (*points.Block, error) { return nil, boom })},
		{"negative-partition", func(row []float64, emit EmitPoint) error {
			emit(-1, row)
			return nil
		}, nil, okFolder},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job := FrameJob{Feed: SetRows(input), Mapper: tc.mapper, Combiner: tc.combiner, Folder: tc.folder}
			_, err := RunFrames(context.Background(), Config{Name: tc.name}, job)
			if err == nil {
				t.Fatal("no error")
			}
		})
	}
}

// TestReduceFailureNamesItsTask: a reduce task that fails fails its job on
// that first error, naming the task; the operator ran once, and no goroutine
// outlives the job.
func TestReduceFailureNamesItsTask(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	var calls atomic.Int32
	folder := Assembled(func(int, *points.Block) (*points.Block, error) {
		calls.Add(1)
		return nil, errors.New("reduce failure")
	})
	_, err := RunFrames(context.Background(), Config{Name: "failing", Workers: 2, Reducers: 1},
		FrameJob{Feed: SetRows(points.Set{{0}, {0}, {0}, {0}, {0}, {0}}), Mapper: tallyMapper, Folder: folder})
	if err == nil || err.Error() != "mapreduce: failing: reduce task 0: reduce failure" {
		t.Fatalf("err = %v, want reduce task 0's first error", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("reducer ran %d times, want 1", n)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after the job, %d before", runtime.NumGoroutine(), goroutines)
			break
		}
	}
}

// TestRunFramesEmptyInput degenerates gracefully.
func TestRunFramesEmptyInput(t *testing.T) {
	mapper, folder := identityFrameJob(2)
	res, err := RunFrames(context.Background(), Config{Name: "empty"},
		FrameJob{Feed: SetRows(nil), Mapper: mapper, Folder: folder})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 0 {
		t.Fatalf("blocks = %d, want 0", len(res.Blocks))
	}
}

// evenRows is a task mapper that returns, in order, the rows of its list
// whose first coordinate is even, in a block of its own.
var evenRows = TaskMapper(func(input Blocks) (*points.Block, FrameStats, error) {
	var st FrameStats
	var keep []*points.Block
	err := input(func(blk *points.Block) error {
		keep = append(keep, blk)
		st.MapIn += int64(blk.Len())
		return nil
	})
	out := points.NewBlock(3, int(st.MapIn))
	for _, blk := range keep {
		for r := 0; r < blk.Len(); r++ {
			if int(blk.Row(r)[0])%2 == 0 {
				out.AppendRow(blk.Row(r))
			}
		}
	}
	return out, st, err
})

// TestWholeInputTaskMapper: a job with a TaskMapper runs exactly the tasks
// its WholeInput names, each handed its own list, and its result is the
// block each task returned, keyed by task — none for a task that returned
// no rows; the counters are the rows the tasks took and returned between
// them. MapFrames — the same task on an executor that ships the input as a
// frame stream — seals that block as one frame of partition task, so the
// tasks' frames assemble into the in-process result.
func TestWholeInputTaskMapper(t *testing.T) {
	data := frameTestData(500, 3, 5)
	a, _ := points.BlockOf(data[:200])
	b, _ := points.BlockOf(data[200:])
	odd, _ := points.BlockOf(points.Set{{1, 2, 3}, {3, 2, 1}})
	lists := [][]*points.Block{{a}, {points.NewBlock(3, 0), b}, {a, b}, {odd}}
	res, err := RunFrames(context.Background(), Config{Name: "whole", Workers: 3, Reducers: 2},
		FrameJob{Feed: WholeInput(lists), TaskMapper: evenRows})
	if err != nil {
		t.Fatal(err)
	}
	var in, out, sealed int64
	var frames [][]byte
	for task, list := range lists {
		want, wantStats, err := evenRows(blocksOf(list))
		if err != nil {
			t.Fatal(err)
		}
		in += wantStats.MapIn
		got, ok := res.Blocks[task]
		if ok != (want.Len() > 0) || ok && !slices.EqualFunc(got.ToSet(), want.ToSet(), slices.Equal[points.Point]) {
			t.Errorf("task %d: the result holds %v, want the %d rows the task returned", task, ok, want.Len())
		}
		var frame []byte
		if want.Len() > 0 {
			frame = points.AppendFrame(nil, task, want)
			out, sealed = out+int64(want.Len()), sealed+int64(len(frame))
		}
		parts, st, err := MapFrames(FrameJob{TaskMapper: evenRows}, len(list), splitPerBlock(list), task, 2, points.FrameDefault)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != 1 || !bytes.Equal(parts[0], frame) || st.MapIn != wantStats.MapIn ||
			st.MapOut != int64(want.Len()) || st.OutputBytes != int64(len(frame)) || st.ShuffleBytes != 0 {
			t.Errorf("task %d: MapFrames sealed %d streams, %+v; want one frame of the task's %d rows", task, len(parts), st, want.Len())
		}
		frames = append(frames, parts...)
	}
	if len(res.Blocks) != 3 {
		t.Errorf("the result has %d blocks, want one for each of the 3 tasks that kept a row", len(res.Blocks))
	}
	if c := res.Counters.Snapshot(); c[CounterMapIn] != in || c[CounterMapOut] != out || c[CounterOutputBytes] != sealed ||
		c[CounterShuffle] != 0 || c[CounterShuffleBytes] != 0 || c[CounterCombineIn] != 0 {
		t.Errorf("counters %v; want %d rows in, %d out as %d output bytes, nothing shuffled or combined", c, in, out, sealed)
	}
	assembled, err := AssembleFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(assembled, res.Blocks) {
		t.Error("the workers' frames assemble into another result than the in-process job's")
	}
	if _, _, err := MapFrames(FrameJob{TaskMapper: evenRows}, 1, oneSplit(frames[0][:len(frames[0])-3]), 0, 2, points.FrameDefault); err == nil {
		t.Error("MapFrames decoded a truncated whole input")
	}
}

// TestTaskJobStartsLargestFirst: a task job's tasks start by descending
// input rows, ties by index (LargestFirst), and the result is keyed by task
// index whatever the order.
func TestTaskJobStartsLargestFirst(t *testing.T) {
	if got, want := LargestFirst([]int{3, 7, 0, 7, 5}), []int{1, 3, 4, 0, 2}; !slices.Equal(got, want) {
		t.Errorf("LargestFirst = %v, want %v", got, want)
	}
	data := frameTestData(60, 3, 9)
	var lists [][]*points.Block
	for _, n := range []int{5, 20, 1, 20, 14} {
		blk, _ := points.BlockOf(data[:n])
		lists = append(lists, []*points.Block{blk})
	}
	var started []int64
	record := TaskMapper(func(input Blocks) (*points.Block, FrameStats, error) {
		blk, st, err := evenRows(input)
		started = append(started, st.MapIn) // one worker: one task at a time
		return blk, st, err
	})
	res, err := RunFrames(context.Background(), Config{Name: "order", Workers: 1},
		FrameJob{Feed: WholeInput(lists), TaskMapper: record})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{20, 20, 14, 5, 1}; !slices.Equal(started, want) {
		t.Errorf("tasks of %v rows started in the order %v, want %v", []int{5, 20, 1, 20, 14}, started, want)
	}
	for task, list := range lists {
		want, _, _ := evenRows(blocksOf(list))
		if got := res.Blocks[task]; want.Len() > 0 && (got == nil || got.Len() != want.Len()) {
			t.Errorf("task %d: the result under its index is not its block", task)
		}
	}
}

// blocksOf is blocks as a task's input stream, the way WholeInput hands it.
func blocksOf(blocks []*points.Block) Blocks {
	return func(each func(*points.Block) error) error {
		for _, blk := range blocks {
			if err := each(blk); err != nil {
				return err
			}
		}
		return nil
	}
}

// splitPerBlock seals block i of blocks as split i, into one buffer reused
// from split to split, the way a worker fetches them.
func splitPerBlock(blocks []*points.Block) func(int) ([]byte, error) {
	var buf []byte
	return func(i int) ([]byte, error) {
		buf = points.AppendFrame(buf[:0], 0, blocks[i])
		return buf, nil
	}
}

// TestTaskMapperKeepsItsBlocks: on an executor that ships a whole input as
// splits, each split arrives as a block of its own, decoded as the task's
// stream reaches it, which the task may keep although the split's buffer
// carries the next one; a stream the task stops early fetches no split
// after it, and its error is the task's.
func TestTaskMapperKeepsItsBlocks(t *testing.T) {
	data := frameTestData(300, 4, 7)
	var blocks []*points.Block
	for lo := 0; lo < len(data); lo += 70 {
		blk, _ := points.BlockOf(data[lo:min(lo+70, len(data))])
		blocks = append(blocks, blk)
	}
	var kept []*points.Block
	keep := TaskMapper(func(input Blocks) (*points.Block, FrameStats, error) {
		err := input(func(blk *points.Block) error {
			kept = append(kept, blk)
			return nil
		})
		return points.NewBlock(4, 0), FrameStats{}, err
	})
	if _, _, err := MapFrames(FrameJob{TaskMapper: keep}, len(blocks), splitPerBlock(blocks), 0, 0, points.FrameDefault); err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(blocks) {
		t.Fatalf("the task was handed %d blocks for %d splits", len(kept), len(blocks))
	}
	for i, blk := range kept {
		if !slices.EqualFunc(blk.ToSet(), blocks[i].ToSet(), slices.Equal[points.Point]) {
			t.Errorf("kept block %d no longer holds split %d's rows", i, i)
		}
	}
	stop := errors.New("enough")
	fetched := 0
	first := TaskMapper(func(input Blocks) (*points.Block, FrameStats, error) {
		return nil, FrameStats{}, input(func(*points.Block) error { return stop })
	})
	_, _, err := MapFrames(FrameJob{TaskMapper: first}, len(blocks), func(i int) ([]byte, error) {
		fetched++
		return points.AppendFrame(nil, 0, blocks[i]), nil
	}, 0, 0, points.FrameDefault)
	if !errors.Is(err, stop) || fetched != 1 {
		t.Errorf("a task that stopped at its first block: err %v after %d fetches, want its own error after one", err, fetched)
	}
}

// TestMapOnlyJob: a task job stops after its map phase. Its result is the
// blocks its tasks returned, as they are, each under its task's index
// whatever order the tasks finished in; no reduce task runs; their v1
// frame bytes are mr.output.bytes and never shuffle.
func TestMapOnlyJob(t *testing.T) {
	data := frameTestData(900, 3, 11)
	var groups [][]*points.Block
	for lo := 0; lo < len(data); lo += 200 {
		blk, _ := points.BlockOf(data[lo:min(lo+200, len(data))])
		groups = append(groups, []*points.Block{blk})
	}
	// Task g returns its group itself.
	same := TaskMapper(func(input Blocks) (out *points.Block, st FrameStats, err error) {
		err = input(func(blk *points.Block) error {
			out, st.MapIn = blk, int64(blk.Len())
			return nil
		})
		return out, st, err
	})
	tr := telemetry.NewTracer()
	res, err := RunFrames(telemetry.WithTracer(context.Background(), tr),
		Config{Name: "map-only", Workers: 3, Reducers: 2},
		FrameJob{Feed: WholeInput(groups), TaskMapper: same})
	if err != nil {
		t.Fatal(err)
	}
	var sealed int64
	for g, in := range groups {
		if res.Blocks[g] != in[0] {
			t.Errorf("task %d's block was not handed over as it is", g)
		}
		sealed += int64(len(points.AppendFrame(nil, g, in[0])))
	}
	c := res.Counters.Snapshot()
	if len(res.Blocks) != len(groups) || c[CounterShuffleBytes] != 0 || c[CounterShuffle] != 0 || c[CounterOutputBytes] != sealed ||
		c[CounterMapIn] != int64(len(data)) || c[CounterMapOut] != int64(len(data)) {
		t.Errorf("%d blocks, counters %v; want %d blocks, %d output bytes, nothing shuffled", len(res.Blocks), c, len(groups), sealed)
	}
	for _, s := range tr.Spans() {
		if s.Name == "reduce" || s.Name == "reduce-task" || s.Name == "shuffle" {
			t.Errorf("a map-only job ran a %s span", s.Name)
		}
	}
	if res.Timing.Reduce != 0 || res.Timing.Shuffle != 0 {
		t.Errorf("timing %+v: a map-only job has no shuffle or reduce time", res.Timing)
	}
}

// full reports whether blk's backing array has no room past its rows —
// capacity equal to length — by whether one more row moves them. It
// appends that row.
func full(blk *points.Block) bool {
	if blk.Len() == 0 {
		return true
	}
	first := &blk.Row(0)[0]
	blk.AppendRow(blk.Row(0))
	return &blk.Row(0)[0] != first
}

// TestStreamsAndBlocksAreSizedOnce: a map task's sealed streams, the
// blocks AssembleFrames decodes and the rows a reduce fold was told of each
// come out with capacity equal to length — allocated once, from counts the
// engine held, not grown by doubling.
func TestStreamsAndBlocksAreSizedOnce(t *testing.T) {
	data := frameTestData(3000, 4, 11)
	streams, _, err := buildFrames(func(emit EmitPoint) (FrameStats, error) {
		for i, p := range data {
			emit(i%7, p)
		}
		return FrameStats{MapIn: int64(len(data))}, nil
	}, Staging, nil, 3, points.FrameV1)
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range streams {
		if len(s) == 0 || cap(s) != len(s) {
			t.Errorf("stream %d: len %d cap %d", r, len(s), cap(s))
		}
	}
	// Every partition's rows arrive in frames from every stream.
	parts, err := AssembleFrames(append(slices.Clone(streams), streams...))
	if err != nil {
		t.Fatal(err)
	}
	for p, blk := range parts {
		if blk.Len() != 2*((len(data)-p+6)/7) || !full(blk) {
			t.Errorf("assembled partition %d: %d rows, full %v", p, blk.Len(), full(blk))
		}
	}
	job := FrameJob{Folder: Assembled(nil)}
	out, _, err := reduceFrames(streams[:1], job)
	if err != nil {
		t.Fatal(err)
	}
	for p, blk := range out {
		if !full(blk) {
			t.Errorf("assembled fold of partition %d has room past its %d rows", p, blk.Len())
		}
	}
}
