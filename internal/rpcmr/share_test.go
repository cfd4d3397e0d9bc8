package rpcmr

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/points"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// noLeak fails t unless, once t's other cleanups have run, the process is
// back to at most the goroutines it had when noLeak was called. Call it
// before the test starts anything: cleanups run last-in first-out.
func noLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines after the test, %d before it:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				return
			}
		}
	})
}

// idleWorkers registers n workers that never ask for a task. Each counts
// toward the shares a job is cut into, and leaves its share to the workers
// that run.
func idleWorkers(t *testing.T, m *Master, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{MasterAddr: m.Addr(), ID: fmt.Sprintf("idle%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	}
}

// joinAfter starts a worker named "healthy" once every worker of gone has
// exited.
func joinAfter(t *testing.T, m *Master, gone *sync.WaitGroup) {
	go func() {
		gone.Wait()
		healthy, err := NewWorker(WorkerConfig{MasterAddr: m.Addr(), ID: "healthy"})
		if err != nil {
			t.Error(err)
			return
		}
		t.Cleanup(func() { healthy.Close() })
		_ = healthy.Run(context.Background())
	}()
}

// splitLog remembers, by first row, the first frame sealed for every split
// of a setFrames input, and fails t when a split is sealed again to other
// bytes; resealed counts the splits sealed again.
type splitLog struct {
	t        *testing.T
	mu       sync.Mutex
	first    map[int][]byte
	resealed int
}

func newSplitLog(t *testing.T) *splitLog { return &splitLog{t: t, first: map[int][]byte{}} }

func (l *splitLog) built(lo, hi int, frame []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.first[lo]; !ok {
		l.first[lo] = bytes.Clone(frame)
	} else if l.resealed++; !bytes.Equal(prev, frame) {
		l.t.Errorf("split [%d, %d): sealed again to other bytes", lo, hi)
	}
}

func (l *splitLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.resealed
}

// requireFrameOracle fails t unless res is the skyline-frame job's result
// over data: per partition of the job's routing rule, classic skyline.BNL of
// the rows routed to it, every row mapped once.
func requireFrameOracle(t *testing.T, res *mapreduce.FrameResult, data points.Set) {
	t.Helper()
	groups := map[int]points.Set{}
	for _, p := range data {
		id := int(p[0]) % frameParts
		groups[id] = append(groups[id], p)
	}
	if len(res.Blocks) != len(groups) {
		t.Fatalf("partitions: cluster %d, reference %d", len(res.Blocks), len(groups))
	}
	for id, g := range groups {
		blk := res.Blocks[id]
		if blk == nil {
			t.Fatalf("partition %d missing from the cluster's result", id)
		}
		if want, got := distinctSorted(skyline.BNL(g)), distinctSorted(blk.ToSet()); !reflect.DeepEqual(got, want) {
			t.Fatalf("partition %d: a skyline of %d points, the oracle's has %d", id, len(got), len(want))
		}
	}
	if in := res.Counters.Get(mapreduce.CounterMapIn); in != int64(len(data)) {
		t.Errorf("mr.map.records.in = %d, want the input's %d rows", in, len(data))
	}
}

// requireOneFault fails t unless the master has counted exactly one task
// retry and one lost worker.
func requireOneFault(t *testing.T, m *Master) {
	t.Helper()
	if st := m.Status(); st.TaskRetries != 1 || st.WorkerFailures != 1 {
		t.Errorf("%d task retries and %d worker failures; want one of each", st.TaskRetries, st.WorkerFailures)
	}
}

// outcome is what one Run returned.
type outcome struct {
	res *mapreduce.FrameResult
	err error
}

// runAsync starts the skyline-frame job over input on m.
func runAsync(m *Master, input Input) <-chan outcome {
	done := make(chan outcome, 1)
	go func() {
		res, err := m.Run(context.Background(), JobSpec{Name: "skyline-frame", Reducers: 2}, input)
		done <- outcome{res, err}
	}()
	return done
}

// take is a task request by hand, repeated until the answer is a task.
func take(svc *MasterService, worker string) TaskReply {
	for {
		var task TaskReply
		_ = svc.RequestTask(TaskArgs{WorkerID: worker}, &task)
		if task.Kind != TaskWait {
			return task
		}
	}
}

// fetch is one NextSplit by hand.
func fetch(svc *MasterService, worker string, job uint64, task, attempt, split int) TaskReply {
	var reply TaskReply
	_ = svc.NextSplit(SplitArgs{WorkerID: worker, Job: job, TaskID: task, Attempt: attempt, Split: split}, &reply)
	return reply
}

// handTask runs, as worker, a task taken by hand — fetching a map task's
// splits after its first as a worker does — and returns its report.
func handTask(t *testing.T, svc *MasterService, worker string, task *TaskReply) ResultArgs {
	t.Helper()
	job, err := lookupJob(task.JobName, task.Params)
	if err != nil {
		t.Fatal(err)
	}
	split := func(i int) ([]byte, error) {
		if i == 0 {
			return task.Frames, nil
		}
		next := fetch(svc, worker, task.Job, task.TaskID, task.Attempt, i)
		if next.Kind != TaskMap {
			return nil, fmt.Errorf("split %d of map task %d refused", i, task.TaskID)
		}
		return next.Frames, nil
	}
	var frames [][]byte
	var st mapreduce.FrameStats
	if task.Kind == TaskMap {
		frames, st, err = mapreduce.MapFrames(job.FrameJob, task.Splits, split, task.TaskID, task.Reducers, job.Codec)
	} else {
		frames, st, err = executeReduce(job, task)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ResultArgs{Kind: task.Kind, WorkerID: worker, Job: task.Job, TaskID: task.TaskID, Attempt: task.Attempt, Frames: frames, Stats: st}
}

// reportTask applies a report by hand, with no next assignment riding back
// on it, and says whether it was accepted.
func reportTask(svc *MasterService, args ResultArgs) bool {
	m := svc.m
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.report(args)
}

// handFinish runs, as worker, every task svc hands out until the run ends,
// and returns its result.
func handFinish(t *testing.T, svc *MasterService, worker string, done <-chan outcome) *mapreduce.FrameResult {
	t.Helper()
	for {
		select {
		case out := <-done:
			if out.err != nil {
				t.Fatal(out.err)
			}
			return out.res
		default:
		}
		var task TaskReply
		_ = svc.RequestTask(TaskArgs{WorkerID: worker}, &task)
		if task.Kind == TaskMap || task.Kind == TaskReduce {
			reportTask(svc, handTask(t, svc, worker, &task))
		}
	}
}

// silenceToDeath ages worker id past three liveness windows and sweeps: the
// health machine declares it dead, and the task it held is queued again.
func silenceToDeath(t *testing.T, m *Master, id string) {
	t.Helper()
	silence(t, m, id, 3*m.cfg.LivenessWindow+time.Millisecond)
}

// TestShareRule: a map task is a worker's share of the splits. With S splits
// and W workers that are not dead when the job starts, a job has W map tasks,
// W clamped to [1, S], and task i holds the splits ⌈i·S/W⌉ … ⌈(i+1)·S/W⌉ − 1:
// the first rides on the assignment, each later one is sealed for its own
// NextSplit, in order, and a fetch past the share is refused. A worker holds
// one task, so task i is taken by worker i.
func TestShareRule(t *testing.T) {
	ensureFrameJobs()
	const split = 10
	for _, tc := range []struct {
		splits, workers int
		shares          [][2]int // each task's splits, [first, end)
	}{
		{8, 3, [][2]int{{0, 3}, {3, 6}, {6, 8}}},
		{16, 3, [][2]int{{0, 6}, {6, 11}, {11, 16}}},
		{16, 2, [][2]int{{0, 8}, {8, 16}}},
		{5, 2, [][2]int{{0, 3}, {3, 5}}},
		{2, 4, [][2]int{{0, 1}, {1, 2}}}, // more workers than splits
		{3, 0, [][2]int{{0, 3}}},         // no worker yet: one task
	} {
		name := fmt.Sprintf("%d splits, %d workers", tc.splits, tc.workers)
		master, _, _ := newCluster(t, MasterConfig{SplitSize: split, LivenessWindow: time.Minute}, 0, WorkerConfig{})
		svc := &MasterService{m: master}
		// A worker the health sweep has declared dead is not counted.
		_ = svc.Register(RegisterArgs{WorkerID: "gone"}, &RegisterReply{})
		master.sweepWorkerStates(time.Now().Add(time.Hour))
		master.sweepWorkerStates(time.Now().Add(time.Hour))
		for i := 0; i < tc.workers; i++ {
			_ = svc.Register(RegisterArgs{WorkerID: fmt.Sprint("w", i)}, &RegisterReply{})
		}
		data := frameClusterData(tc.splits*split, 3, 1)[:tc.splits*split]
		// The splits sealed, in order. Only this goroutine asks for them.
		var sealed []int
		done := runAsync(master, FrameRows(len(data), func(dst []byte, lo, hi int) ([]byte, error) {
			sealed = append(sealed, lo/split)
			return points.AppendFrameRows(dst, 0, data[lo:hi])
		}))
		for i, share := range tc.shares {
			sealed = sealed[:0]
			taker := fmt.Sprint("w", i)
			task := take(svc, taker)
			if task.Kind != TaskMap || task.TaskID != i || task.Splits != share[1]-share[0] {
				t.Fatalf("%s: kind %d, task %d with %d splits; want map task %d with %d",
					name, task.Kind, task.TaskID, task.Splits, i, share[1]-share[0])
			}
			for s := 1; s < task.Splits; s++ {
				if next := fetch(svc, taker, task.Job, task.TaskID, task.Attempt, s); next.Kind != TaskMap || len(next.Frames) == 0 {
					t.Fatalf("%s: split %d of task %d refused", name, s, i)
				}
			}
			if past := fetch(svc, taker, task.Job, task.TaskID, task.Attempt, task.Splits); past.Kind != TaskWait {
				t.Errorf("%s: task %d: a fetch past its share was served", name, i)
			}
			var want []int
			for s := share[0]; s < share[1]; s++ {
				want = append(want, s)
			}
			if !reflect.DeepEqual(sealed, want) {
				t.Errorf("%s: task %d was sealed splits %v, want %v", name, i, sealed, want)
			}
		}
		if st := master.Status(); st.TasksTotal != len(tc.shares) || st.Pending != 0 {
			t.Errorf("%s: %d map tasks, %d pending; want %d, none pending", name, st.TasksTotal, st.Pending, len(tc.shares))
		}
		master.Close()
		if out := <-done; out.err == nil {
			t.Errorf("%s: the job finished though no task was reported", name)
		}
	}
}

// TestShareLostWithItsWorker: a worker that vanishes holding a share
// (WorkerConfig.VanishAfterTasks) loses all of it. The health sweep finds it
// dead, the share is queued again, and a worker that joins later maps the whole
// share, its first split sealed again to the same bytes. The result is the
// oracle's, and the master counts one retry and one lost worker.
func TestShareLostWithItsWorker(t *testing.T) {
	noLeak(t)
	ensureFrameJobs()
	master, _, doomed := newCluster(t, MasterConfig{SplitSize: 100, LivenessWindow: 70 * time.Millisecond}, 1, WorkerConfig{VanishAfterTasks: 1})
	idleWorkers(t, master, 1) // two shares: the doomed worker maps one and vanishes holding the other
	joinAfter(t, master, doomed)
	data := frameClusterData(1000, 3, 12) // 1 200 rows: two shares of six splits
	log := newSplitLog(t)
	out := <-runAsync(master, setFrames(data, log.built))
	if out.err != nil {
		t.Fatal(out.err)
	}
	requireFrameOracle(t, out.res, data)
	requireOneFault(t, master)
	if n := log.count(); n != 1 {
		t.Errorf("%d splits sealed again; want the lost share's first, which rode on its assignment", n)
	}
}

// TestShareConnectionDropsMidShare: a worker whose connection drops after it
// has fetched some of its share's splits takes the share with it. The worker,
// whose every fetch was a heartbeat, falls silent and is found dead, and a
// worker that joins later maps the
// share from its first split, each split the lost worker had sealed again
// to the same bytes. The result is the oracle's, with one retry and one
// lost worker.
func TestShareConnectionDropsMidShare(t *testing.T) {
	noLeak(t)
	ensureFrameJobs()
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 100, LivenessWindow: 70 * time.Millisecond}, 0, WorkerConfig{})
	flaky, err := dial(master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer flaky.Close()
	if err := flaky.Call("Master.Register", &RegisterArgs{WorkerID: "flaky"}, &RegisterReply{}); err != nil {
		t.Fatal(err)
	}
	data := frameClusterData(1000, 3, 13) // 1 200 rows: one share of twelve splits
	log := newSplitLog(t)
	done := runAsync(master, setFrames(data, log.built))
	var task TaskReply
	if err := flaky.Call("Master.RequestTask", &TaskArgs{WorkerID: "flaky"}, &task); err != nil {
		t.Fatal(err)
	}
	if task.Kind != TaskMap || task.Splits != 12 {
		t.Fatalf("kind %d with %d splits, want the one map task of twelve", task.Kind, task.Splits)
	}
	const k = 3
	for i := 1; i <= k; i++ {
		var next TaskReply
		args := SplitArgs{WorkerID: "flaky", Job: task.Job, TaskID: task.TaskID, Attempt: task.Attempt, Split: i}
		if err := flaky.Call("Master.NextSplit", &args, &next); err != nil || next.Kind != TaskMap || len(next.Frames) == 0 {
			t.Fatalf("split %d: kind %d, %d bytes, error %v", i, next.Kind, len(next.Frames), err)
		}
	}
	flaky.Close()
	healthy, err := NewWorker(WorkerConfig{MasterAddr: master.Addr(), ID: "healthy"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthy.Close() })
	go func() { _ = healthy.Run(context.Background()) }()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	requireFrameOracle(t, out.res, data)
	requireOneFault(t, master)
	if n := log.count(); n != 1+k {
		t.Errorf("%d splits sealed again; want the %d the lost worker had", n, 1+k)
	}
}

// TestStaleFetchRefused: a split is served to the current attempt of a
// running job's map task alone, and a fetch is a heartbeat from its worker.
// Once a share's worker has died and another worker holds it, a fetch by
// the superseded attempt is refused, as is one that names another job or a
// split past the share; the new attempt's fetches are served. The result is
// the oracle's, with one retry and one lost worker.
func TestStaleFetchRefused(t *testing.T) {
	noLeak(t)
	ensureFrameJobs()
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 100, LivenessWindow: 200 * time.Millisecond}, 0, WorkerConfig{})
	svc := &MasterService{m: master}
	_ = svc.Register(RegisterArgs{WorkerID: "old"}, &RegisterReply{})
	data := frameClusterData(500, 3, 14) // 600 rows: one share of six splits
	done := runAsync(master, setFrames(data, nil))
	old := take(svc, "old")
	silence(t, master, "old", 2*master.cfg.LivenessWindow) // suspect
	if next := fetch(svc, "old", old.Job, old.TaskID, old.Attempt, 1); next.Kind != TaskMap {
		t.Fatal("the current attempt's fetch was refused")
	}
	if h := master.Health(); h.Healthy != 1 || h.Suspect != 0 {
		t.Error("a fetch was not a heartbeat: its suspect worker did not recover")
	}
	silenceToDeath(t, master, "old")
	fresh := take(svc, "fresh")
	if fresh.Kind != TaskMap || fresh.TaskID != old.TaskID || fresh.Attempt != old.Attempt+1 {
		t.Fatalf("kind %d, task %d attempt %d; want the dead worker's share again", fresh.Kind, fresh.TaskID, fresh.Attempt)
	}
	for name, refused := range map[string]TaskReply{
		"superseded attempt":   fetch(svc, "old", old.Job, old.TaskID, old.Attempt, 2),
		"another job":          fetch(svc, "fresh", fresh.Job+1, fresh.TaskID, fresh.Attempt, 2),
		"split past the share": fetch(svc, "fresh", fresh.Job, fresh.TaskID, fresh.Attempt, fresh.Splits),
	} {
		if refused.Kind != TaskWait || len(refused.Frames) != 0 {
			t.Errorf("%s: kind %d with %d bytes, want refused", name, refused.Kind, len(refused.Frames))
		}
	}
	if !reportTask(svc, handTask(t, svc, "fresh", &fresh)) {
		t.Error("the current attempt's report was not accepted")
	}
	requireFrameOracle(t, handFinish(t, svc, "fresh", done), data)
	requireOneFault(t, master)
}

// TestLateReportNotCounted: an attempt whose worker was found dead may still
// finish its task and report it, late, in either phase. A failure it reports is not
// the task's — the task was queued again when the attempt was superseded, and
// the attempt that superseded it is running it — and the task's first
// accepted report wins: once the superseding attempt has reported, the late
// report is not accepted, and neither its output nor its tallies are counted.
// The reduce row drives the map phase by hand first. A worker holds one
// task, so the superseding attempt is another worker's.
func TestLateReportNotCounted(t *testing.T) {
	for _, phase := range []TaskKind{TaskMap, TaskReduce} {
		t.Run(phaseName(phase), func(t *testing.T) {
			noLeak(t)
			ensureFrameJobs()
			master, _, _ := newCluster(t, MasterConfig{SplitSize: 100, LivenessWindow: 200 * time.Millisecond}, 0, WorkerConfig{})
			svc := &MasterService{m: master}
			for _, id := range []string{"late", "prompt"} {
				_ = svc.Register(RegisterArgs{WorkerID: id}, &RegisterReply{})
			}
			data := frameClusterData(1000, 3, 15) // 1 200 rows: two shares of six splits, two reducers
			done := runAsync(master, setFrames(data, nil))
			for phase == TaskReduce && master.Status().Phase != TaskReduce {
				task := take(svc, "prompt")
				if !reportTask(svc, handTask(t, svc, "prompt", &task)) {
					t.Fatalf("map task %d's report was not accepted", task.TaskID)
				}
			}
			late := take(svc, "late")
			lateReport := handTask(t, svc, "late", &late) // the whole task, reported below
			other := take(svc, "prompt")
			if late.Kind != phase || other.Kind != phase {
				t.Fatalf("kinds %d and %d, want two tasks of kind %d", late.Kind, other.Kind, phase)
			}
			silenceToDeath(t, master, "late")
			again := take(svc, "rerun")
			if again.Kind != phase || again.TaskID != late.TaskID || again.Attempt != late.Attempt+1 {
				t.Fatalf("kind %d task %d attempt %d; want the dead worker's task again", again.Kind, again.TaskID, again.Attempt)
			}
			lateFailure := lateReport
			lateFailure.Err = "the superseded attempt failed"
			if reportTask(svc, lateFailure) {
				t.Error("a superseded attempt's failure report was accepted")
			}
			if st := master.Status(); st.TaskRetries != 1 || st.Pending != 0 {
				t.Errorf("after the superseded attempt's failure: %d task retries, %d pending; want 1 and 0", st.TaskRetries, st.Pending)
			}
			if !reportTask(svc, handTask(t, svc, "rerun", &again)) {
				t.Error("the superseding attempt's report was not accepted")
			}
			if reportTask(svc, lateReport) {
				t.Error("a late report from a superseded attempt was accepted")
			}
			if !reportTask(svc, handTask(t, svc, "prompt", &other)) {
				t.Error("the other task's report was not accepted")
			}
			requireFrameOracle(t, handFinish(t, svc, "prompt", done), data)
			requireOneFault(t, master)
		})
	}
}

// TestMapOnlyJobFinishesOnItsLastMapReport: a task job is map-only on the
// cluster too. Its last accepted map report finishes it — no reduce task is
// ever handed out — and its result is its map tasks' output, a block under
// each task's index, booked as output, never as shuffle. A superseded
// attempt's report and a late duplicate, after the finish, change nothing.
// A worker holds one task, so the superseding attempt is another worker's.
func TestMapOnlyJobFinishesOnItsLastMapReport(t *testing.T) {
	noLeak(t)
	ensureFrameJobs()
	reg := telemetry.NewRegistry()
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 100, LivenessWindow: 200 * time.Millisecond, Metrics: reg}, 0, WorkerConfig{})
	svc := &MasterService{m: master}
	for _, id := range []string{"late", "prompt"} {
		_ = svc.Register(RegisterArgs{WorkerID: id}, &RegisterReply{})
	}
	data := frameClusterData(1000, 3, 15)
	done := make(chan outcome, 1)
	go func() {
		res, err := master.Run(context.Background(), JobSpec{Name: "skyline-merge", Reducers: 2}, wholeFrames(data, 2, nil))
		done <- outcome{res, err}
	}()
	late := take(svc, "late")
	lateReport := handTask(t, svc, "late", &late)
	other := take(svc, "prompt")
	silenceToDeath(t, master, "late")
	again := take(svc, "rerun")
	if late.Kind != TaskMap || other.Kind != TaskMap || again.TaskID != late.TaskID || again.Attempt != late.Attempt+1 {
		t.Fatalf("tasks %+v, %+v, %+v; want two map tasks, the first again", late, other, again)
	}
	outputs := make([][][]byte, 2)
	var againReport ResultArgs
	holders := []string{"prompt", "rerun"}
	for i, task := range []*TaskReply{&other, &again} {
		report := handTask(t, svc, holders[i], task)
		outputs[task.TaskID] = report.Frames
		if !reportTask(svc, report) {
			t.Fatalf("map task %d's report was not accepted", task.TaskID)
		}
		againReport = report
	}
	out := <-done // the last map report finished the job
	if out.err != nil {
		t.Fatal(out.err)
	}
	if reportTask(svc, lateReport) {
		t.Error("a superseded attempt's report after the finish was accepted")
	}
	if reportTask(svc, againReport) {
		t.Error("a late duplicate report after the finish was accepted")
	}
	var task TaskReply
	_ = svc.RequestTask(TaskArgs{WorkerID: "prompt"}, &task)
	if task.Kind != TaskWait {
		t.Errorf("after the map-only job a %d task was handed out", task.Kind)
	}

	want, err := mapreduce.AssembleFrames(append(outputs[0], outputs[1]...))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(out.res.Blocks, want) {
		t.Error("the result is not the map tasks' output keyed by task")
	}
	var global points.Set // the tasks' blocks in task order; a task that kept nothing has none
	for task := range out.res.Blocks {
		if task != late.TaskID && task != other.TaskID {
			t.Errorf("the result has a block under %d, which is no task's index", task)
		}
	}
	for task := 0; task < 2; task++ {
		if blk := out.res.Blocks[task]; blk != nil {
			global = append(global, blk.ToSet()...)
		}
	}
	if got, oracle := distinctSorted(global), distinctSorted(skyline.BNL(data)); !reflect.DeepEqual(got, oracle) {
		t.Errorf("a skyline of %d points, the oracle's has %d", len(got), len(oracle))
	}
	c := out.res.Counters.Snapshot()
	var sealed int64
	for _, stream := range append(outputs[0], outputs[1]...) {
		sealed += int64(len(stream))
	}
	if c[mapreduce.CounterShuffleBytes] != 0 || c[mapreduce.CounterShuffle] != 0 || c[mapreduce.CounterOutputBytes] != sealed ||
		c[mapreduce.CounterMapIn] != int64(len(data)) || out.res.Timing.Reduce != 0 {
		t.Errorf("counters %v, timing %+v; want %d output bytes, nothing shuffled or reduced", c, out.res.Timing, sealed)
	}
	for _, w := range []string{"late", "prompt"} {
		if v := reg.Counter("rpcmr_shuffle_bytes_total", telemetry.L("worker", w)).Value(); v != 0 {
			t.Errorf("rpcmr_shuffle_bytes_total{worker=%q} = %d, want 0", w, v)
		}
	}
}
