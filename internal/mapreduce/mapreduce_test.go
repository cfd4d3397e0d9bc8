package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/points"
)

// The tally job is word count — the canonical smoke test for any MapReduce
// engine — on frames: a row is one word's id, the mapper routes a 1 to the
// partition of that id, and combiner and reducer — the one operator, staged
// map side and assembled reduce side — sum what a partition holds, so a
// partition's one output row is its word's count.

func tallyMapper(row []float64, emit EmitPoint) error {
	emit(int(row[0]), []float64{1})
	return nil
}

func sumRows(blk *points.Block) float64 {
	total := 0.0
	for i := 0; i < blk.Len(); i++ {
		total += blk.Row(i)[0]
	}
	return total
}

func tallyCombiner(_ int, blk *points.Block) (*points.Block, error) {
	out := points.NewBlock(1, 1)
	out.AppendRow([]float64{sumRows(blk)})
	return out, nil
}

var tallyFolder = Assembled(tallyCombiner)

// wordRows turns documents into the tally job's input, one row per word in
// reading order, and returns the vocabulary (id → word).
func wordRows(docs []string) (points.Set, []string) {
	ids := map[string]int{}
	var vocab []string
	var rows points.Set
	for _, d := range docs {
		for _, w := range strings.Fields(d) {
			id, ok := ids[w]
			if !ok {
				id = len(vocab)
				ids[w] = id
				vocab = append(vocab, w)
			}
			rows = append(rows, points.Point{float64(id)})
		}
	}
	return rows, vocab
}

// tallyOf is the tally job over one row per word of docs.
func tallyOf(docs ...string) FrameJob {
	rows, _ := wordRows(docs)
	return FrameJob{Feed: SetRows(rows), Mapper: tallyMapper, Folder: tallyFolder}
}

// tally runs job over rows and returns partition id → count.
func tally(t *testing.T, cfg Config, rows points.Set, job FrameJob) (map[int]int, *FrameResult) {
	t.Helper()
	job.Feed = SetRows(rows)
	res, err := RunFrames(context.Background(), cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]int{}
	for id, blk := range res.Blocks {
		if blk.Len() != 1 {
			t.Fatalf("partition %d: %d output rows, want 1", id, blk.Len())
		}
		out[id] = int(blk.Row(0)[0])
	}
	return out, res
}

// wordCountJob counts the words of docs with the tally job.
func wordCountJob(t *testing.T, cfg Config, docs []string, combiner FrameCombiner) map[string]int {
	t.Helper()
	rows, vocab := wordRows(docs)
	counts, _ := tally(t, cfg, rows, FrameJob{Mapper: tallyMapper, Combiner: combiner, Folder: tallyFolder})
	out := map[string]int{}
	for id, n := range counts {
		out[vocab[id]] = n
	}
	return out
}

var wcDocs = []string{
	"the quick brown fox",
	"the lazy dog",
	"the quick dog jumps",
	"fox and dog and fox",
}

var wcWant = map[string]int{
	"the": 3, "quick": 2, "brown": 1, "fox": 3, "lazy": 1,
	"dog": 3, "jumps": 1, "and": 2,
}

func checkWordCount(t *testing.T, got map[string]int) {
	t.Helper()
	if len(got) != len(wcWant) {
		t.Fatalf("got %v, want %v", got, wcWant)
	}
	for k, v := range wcWant {
		if got[k] != v {
			t.Errorf("count[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestWordCount(t *testing.T) {
	checkWordCount(t, wordCountJob(t, Config{Name: "wc", Workers: 4, Reducers: 3}, wcDocs, nil))
}

func TestWordCountWithCombiner(t *testing.T) {
	cfg := Config{Name: "wc-comb", Workers: 2, Reducers: 2}
	checkWordCount(t, wordCountJob(t, cfg, wcDocs, tallyCombiner))
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	rows := make(points.Set, 100)
	for i := range rows {
		rows[i] = points.Point{7} // one word, a hundred times
	}
	cfg := Config{Workers: 10}
	_, noComb := tally(t, cfg, rows, FrameJob{Mapper: tallyMapper, Folder: tallyFolder})
	counts, withComb := tally(t, cfg, rows, FrameJob{Mapper: tallyMapper, Combiner: tallyCombiner, Folder: tallyFolder})
	if n, w := noComb.Counters.Get(CounterShuffle), withComb.Counters.Get(CounterShuffle); w >= n {
		t.Errorf("combiner did not cut shuffle volume: %d -> %d", n, w)
	}
	// Both must still compute the same total.
	if counts[7] != 100 {
		t.Errorf("combined total = %d, want 100", counts[7])
	}
}

// TestDeterministicOutputAcrossRuns: result blocks are assembled in
// reduce-task and map-task order, whatever order tasks finish in.
func TestDeterministicOutputAcrossRuns(t *testing.T) {
	data := frameTestData(600, 3, 9)
	mapper, folder := identityFrameJob(7)
	seal := func(blocks map[int]*points.Block) []byte {
		var out []byte
		for _, id := range sortedInts(blocks) {
			out = points.AppendFrame(out, id, blocks[id])
		}
		return out
	}
	var ref []byte
	for trial := 0; trial < 5; trial++ {
		res, err := RunFrames(context.Background(), Config{Workers: 8, Reducers: 4},
			FrameJob{Feed: SetRows(data), Mapper: mapper, Folder: folder})
		if err != nil {
			t.Fatal(err)
		}
		if got := seal(res.Blocks); trial == 0 {
			ref = got
		} else if !bytes.Equal(got, ref) {
			t.Fatalf("trial %d: result blocks differ from the first run's", trial)
		}
	}
}

func TestFrameworkCounters(t *testing.T) {
	cfg := Config{Workers: 2, Reducers: 2}
	rows, _ := wordRows([]string{"a b", "a"})
	_, res := tally(t, cfg, rows, FrameJob{Mapper: tallyMapper, Folder: tallyFolder})
	c := res.Counters
	for name, want := range map[string]int64{
		CounterMapIn: 3, CounterMapOut: 3, CounterShuffle: 3,
		CounterGroups: 2, CounterReduceIn: 3, CounterReduceOut: 2,
	} {
		if got := c.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestMapErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := RunFrames(context.Background(), Config{Name: "failing"}, FrameJob{
		Feed:   SetRows(points.Set{{1}}),
		Mapper: func([]float64, EmitPoint) error { return boom },
		Folder: tallyFolder,
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
	if err == nil || !strings.Contains(err.Error(), "failing") {
		t.Errorf("error %v does not name the job", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	boom := errors.New("reduce-boom")
	_, err := RunFrames(context.Background(), Config{}, FrameJob{
		Feed:   SetRows(points.Set{{1}}),
		Mapper: tallyMapper,
		Folder: Assembled(func(int, *points.Block) (*points.Block, error) { return nil, boom }),
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestCombinerErrorPropagates(t *testing.T) {
	boom := errors.New("combine-boom")
	_, err := RunFrames(context.Background(), Config{}, FrameJob{
		Feed:     SetRows(points.Set{{1}}),
		Mapper:   tallyMapper,
		Combiner: func(int, *points.Block) (*points.Block, error) { return nil, boom },
		Folder:   tallyFolder,
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

// TestPersistentFailureExhaustsAttempts: a task runs once, so a failing
// mapper fails the job on its first error, and the error names the task.
func TestPersistentFailureExhaustsAttempts(t *testing.T) {
	var calls atomic.Int32
	_, err := RunFrames(context.Background(), Config{Name: "doomed", Workers: 1}, FrameJob{
		Feed: SetRows(points.Set{{1}, {2}, {3}}),
		Mapper: func([]float64, EmitPoint) error {
			calls.Add(1)
			return errors.New("always")
		},
		Folder: tallyFolder,
	})
	if err == nil || err.Error() != "mapreduce: doomed: map task 0: always" {
		t.Errorf("err = %v, want the first attempt's error, naming the task", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("mapper called %d times, want 1: nothing after the first error", n)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	block := make(chan struct{})
	mapper := RowMapper(func([]float64, EmitPoint) error {
		once.Do(func() { close(started) })
		<-block
		return nil
	})
	rows := make(points.Set, 100)
	for i := range rows {
		rows[i] = points.Point{0}
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunFrames(ctx, Config{Workers: 1},
			FrameJob{Feed: SetRows(rows), Mapper: mapper, Folder: tallyFolder})
		done <- err
	}()
	<-started
	cancel()
	close(block)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestNilMapperRejected(t *testing.T) {
	if _, err := RunFrames(context.Background(), Config{}, FrameJob{Feed: SetRows(nil), Folder: tallyFolder}); err == nil {
		t.Error("nil mapper accepted")
	}
	if _, err := RunFrames(context.Background(), Config{}, FrameJob{Mapper: tallyMapper, Folder: tallyFolder}); err == nil {
		t.Error("job without a feed accepted")
	}
}

func TestEmptyInput(t *testing.T) {
	counts, _ := tally(t, Config{}, nil, FrameJob{Mapper: tallyMapper, Folder: tallyFolder})
	if len(counts) != 0 {
		t.Errorf("counts = %v, want none", counts)
	}
}

func TestTimingPopulated(t *testing.T) {
	rows, _ := wordRows(wcDocs)
	_, res := tally(t, Config{Workers: 2}, rows, FrameJob{Mapper: tallyMapper, Folder: tallyFolder})
	tm := res.Timing
	if tm.Total <= 0 {
		t.Error("total timing not recorded")
	}
	if tm.Total < tm.Map || tm.Total < tm.Reduce {
		t.Errorf("phase timings exceed total: %+v", tm)
	}
}

func TestTimingAdd(t *testing.T) {
	a := Timing{Map: 1, Combine: 2, Shuffle: 3, Reduce: 4, Total: 10}
	b := Timing{Map: 10, Combine: 20, Shuffle: 30, Reduce: 40, Total: 100}
	a.Add(b)
	if a.Map != 11 || a.Combine != 22 || a.Shuffle != 33 || a.Reduce != 44 || a.Total != 110 {
		t.Errorf("Add = %+v", a)
	}
}

func TestCountersSnapshot(t *testing.T) {
	c := NewCounters()
	c.Add("x", 2)
	c.Add("x", 3)
	c.Add("y", 1)
	snap := c.Snapshot()
	if snap["x"] != 5 || snap["y"] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
	snap["x"] = 99
	if c.Get("x") != 5 {
		t.Error("snapshot aliases live counters")
	}
}

func TestManyWorkersFewTasks(t *testing.T) {
	checkWordCount(t, wordCountJob(t, Config{Workers: 64}, wcDocs, nil))
}

// TestOptionSurface pins the number of independently settable values of a
// job's configuration. A new field has to edit this count, and the
// simplicity guide's rule for one applies: two callers that exist today
// (tests and examples do not count) need different values, and the engine
// cannot work the value out from its inputs.
func TestOptionSurface(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != 5 {
		t.Fatalf("mapreduce.Config has %d fields, want 5", n)
	}
}

func BenchmarkWordCount(b *testing.B) {
	var docs []string
	for i := 0; i < 1000; i++ {
		docs = append(docs, fmt.Sprintf("word%d common word%d common common", i%50, i%13))
	}
	rows, _ := wordRows(docs)
	job := FrameJob{Feed: SetRows(rows), Mapper: tallyMapper, Folder: tallyFolder}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunFrames(context.Background(), Config{Workers: 4}, job); err != nil {
			b.Fatal(err)
		}
	}
}
