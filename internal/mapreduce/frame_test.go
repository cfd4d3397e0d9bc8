package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
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

// TestWholeInputTaskMapper: a job with a TaskMapper runs exactly the tasks
// its WholeInput names, each handed its list — here all the blocks, every
// time — and its own index; the counters are the rows the tasks took between
// them, and MapFrames — the same task on an executor that ships the input as
// a frame stream — seals the bytes the in-process task does.
func TestWholeInputTaskMapper(t *testing.T) {
	data := frameTestData(500, 3, 5)
	a, _ := points.BlockOf(data[:200])
	b, _ := points.BlockOf(data[200:])
	blocks := []*points.Block{a, points.NewBlock(0, 0), b}
	const tasks = 4
	// Task t keeps rows t, t+4, … of the input taken as one sequence.
	strided := TaskMapper(func(input Blocks, task, n int, emit EmitPoint) (FrameStats, error) {
		var st FrameStats
		i := 0
		err := input(func(blk *points.Block) error {
			for r := 0; r < blk.Len(); r, i = r+1, i+1 {
				if i%n == task {
					emit(int(blk.Row(r)[0])%3, blk.Row(r))
					st.MapIn++
				}
			}
			return nil
		})
		return st, err
	})
	_, folder := identityFrameJob(3)
	whole := WholeInput([][]*points.Block{blocks, blocks, blocks, blocks})
	res, err := RunFrames(context.Background(), Config{Name: "whole", Workers: 3, Reducers: 2},
		FrameJob{Feed: whole, TaskMapper: strided, Folder: folder})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int]points.Set)
	for id, blk := range res.Blocks {
		got[id] = blk.ToSet()
	}
	requireSameSets(t, routedDirectly(data, 3), got)
	n := int64(len(data))
	if c := res.Counters.Snapshot(); c[CounterMapIn] != n || c[CounterMapOut] != n || c[CounterShuffle] != n ||
		c[CounterCombineIn] != 0 {
		t.Errorf("counters %v; want %d rows in, out and shuffled, nothing combined", c, n)
	}

	// The same tasks from sealed splits, a split a block.
	var stream []byte
	for _, blk := range blocks {
		stream = points.AppendFrame(stream, 0, blk)
	}
	for task := 0; task < tasks; task++ {
		want, wantStats, err := buildFrames(func(emit EmitPoint) (FrameStats, error) {
			return strided(blocksOf(blocks), task, tasks, emit)
		}, nil, nil, 2, points.FrameDefault)
		if err != nil {
			t.Fatal(err)
		}
		parts, st, err := MapFrames(FrameJob{TaskMapper: strided, Folder: folder}, len(blocks), splitPerBlock(blocks), task, tasks, 2, points.FrameDefault)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != len(want) || !bytes.Equal(parts[0], want[0]) || !bytes.Equal(parts[1], want[1]) || st.MapIn != wantStats.MapIn {
			t.Errorf("task %d: MapFrames sealed other bytes than the in-process task (%d rows in, want %d)", task, st.MapIn, wantStats.MapIn)
		}
	}

	// What is not a job, and what is not a task of one.
	mapper, _ := identityFrameJob(3)
	for name, job := range map[string]FrameJob{
		"both mappers":              {Feed: whole, Mapper: mapper, TaskMapper: strided, Folder: folder},
		"task mapper over rows":     {Feed: SetRows(data), TaskMapper: strided, Folder: folder},
		"row mapper over the whole": {Feed: whole, Mapper: mapper, Folder: folder},
	} {
		if _, err := RunFrames(context.Background(), Config{Name: name}, job); err == nil {
			t.Errorf("%s: RunFrames accepted it", name)
		}
	}
	for _, at := range [][2]int{{-1, 4}, {4, 4}, {0, 0}} {
		if _, _, err := MapFrames(FrameJob{TaskMapper: strided}, 1, oneSplit(stream), at[0], at[1], 2, points.FrameDefault); err == nil {
			t.Errorf("MapFrames ran task %d of %d", at[0], at[1])
		}
	}
	if _, _, err := MapFrames(FrameJob{TaskMapper: strided}, 1, oneSplit(stream[:len(stream)-3]), 0, tasks, 2, points.FrameDefault); err == nil {
		t.Error("MapFrames decoded a truncated whole input")
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
	keep := TaskMapper(func(input Blocks, _, _ int, emit EmitPoint) (FrameStats, error) {
		err := input(func(blk *points.Block) error {
			kept = append(kept, blk)
			return nil
		})
		return FrameStats{}, err
	})
	if _, _, err := MapFrames(FrameJob{TaskMapper: keep}, len(blocks), splitPerBlock(blocks), 0, 1, 0, points.FrameDefault); err != nil {
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
	first := TaskMapper(func(input Blocks, _, _ int, emit EmitPoint) (FrameStats, error) {
		return FrameStats{}, input(func(*points.Block) error { return stop })
	})
	_, _, err := MapFrames(FrameJob{TaskMapper: first}, len(blocks), func(i int) ([]byte, error) {
		fetched++
		return points.AppendFrame(nil, 0, blocks[i]), nil
	}, 0, 1, 0, points.FrameDefault)
	if !errors.Is(err, stop) || fetched != 1 {
		t.Errorf("a task that stopped at its first block: err %v after %d fetches, want its own error after one", err, fetched)
	}
}

// TestMapOnlyJob: a job without a Folder stops after its map phase. Its
// result is its map tasks' sealed streams assembled in task order, whatever
// order the tasks finished in; no reduce task runs; its bytes are
// mr.output.bytes and never shuffle. MapFrames seals the same
// bytes for such a job on a worker, as one stream.
func TestMapOnlyJob(t *testing.T) {
	data := frameTestData(900, 3, 11)
	var groups [][]*points.Block
	for lo := 0; lo < len(data); lo += 200 {
		blk, _ := points.BlockOf(data[lo:min(lo+200, len(data))])
		groups = append(groups, []*points.Block{blk})
	}
	// Task g sends its group, in order, to one shared partition.
	concat := TaskMapper(func(input Blocks, task, tasks int, emit EmitPoint) (FrameStats, error) {
		var st FrameStats
		err := input(func(blk *points.Block) error {
			for r := 0; r < blk.Len(); r++ {
				emit(0, blk.Row(r))
			}
			st.MapIn += int64(blk.Len())
			return nil
		})
		return st, err
	})
	tr := telemetry.NewTracer()
	res, err := RunFrames(telemetry.WithTracer(context.Background(), tr),
		Config{Name: "map-only", Workers: 3, Reducers: 2},
		FrameJob{Feed: WholeInput(groups), TaskMapper: concat})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 1 || !slices.EqualFunc(res.Blocks[0].ToSet(), data, slices.Equal[points.Point]) {
		t.Fatalf("map-only output is not the tasks' rows in task order")
	}
	var sealed int64
	for _, g := range groups {
		sealed += int64(len(points.AppendFrame(nil, 0, g[0])))
	}
	c := res.Counters.Snapshot()
	if c[CounterShuffleBytes] != 0 || c[CounterShuffle] != 0 || c[CounterOutputBytes] != sealed || c[CounterMapIn] != int64(len(data)) {
		t.Errorf("counters %v; want %d output bytes, nothing shuffled", c, sealed)
	}
	for _, s := range tr.Spans() {
		if s.Name == "reduce" || s.Name == "reduce-task" || s.Name == "shuffle" {
			t.Errorf("a map-only job ran a %s span", s.Name)
		}
	}
	if res.Timing.Reduce != 0 || res.Timing.Shuffle != 0 {
		t.Errorf("timing %+v: a map-only job has no shuffle or reduce time", res.Timing)
	}

	// On a worker: one stream, the task's output.
	stream := points.AppendFrame(nil, 0, groups[1][0])
	parts, st, err := MapFrames(FrameJob{TaskMapper: concat}, 1, oneSplit(stream), 1, len(groups), 2, points.FrameDefault)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || !bytes.Equal(parts[0], stream) || st.OutputBytes != int64(len(stream)) || st.ShuffleBytes != 0 {
		t.Errorf("MapFrames of a map-only task: %d streams, %d output bytes, %d shuffle bytes; want one stream of %d output bytes",
			len(parts), st.OutputBytes, st.ShuffleBytes, len(stream))
	}
}
