package rpcmr

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/mapreduce"
	"repro/internal/points"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

const frameParts = 5

// ensureFrameJobs registers the skyline jobs. Separate Once from
// ensureJobs, which it calls first: ensureJobs owns resetRegistryForTest,
// so ordering matters.
var frameJobsOnce sync.Once

// skyline-frame's mapper routes by first coordinate; its combiner is the
// local skyline of the staged block, and of each assembled partition in
// reduce.
var (
	frameMapper = func(row []float64, emit mapreduce.EmitPoint) error {
		emit(int(row[0])%frameParts, row)
		return nil
	}
	frameCombiner = func(partition int, blk *points.Block) (*points.Block, error) {
		return skyline.BlockBNL(blk), nil
	}
)

func ensureFrameJobs() {
	ensureJobs()
	frameJobsOnce.Do(func() {
		mapper, combiner := frameMapper, frameCombiner
		// skyline-fold: skyline-frame's over 3-dimensional rows, its reducers 1 KiB
		// budgeted folds — reduce tasks with a peak and a pass count to report.
		RegisterJob("skyline-fold", func(params []byte) (Job, error) {
			return Job{FrameJob: mapreduce.FrameJob{Mapper: mapper, Combiner: combiner,
				Folder: func(int) mapreduce.FrameFold { return skyline.NewBudgetedFold(3, 1<<10, "", points.FrameDefault) },
			}}, nil
		})
		// skyline-merge: the merging job as the pipeline runs it — map-only,
		// every map task gets its group and the rows at or below its sums.
		RegisterJob("skyline-merge", func(params []byte) (Job, error) {
			return Job{FrameJob: driver.MergeJob(3, 0)}, nil
		})
		RegisterJob("skyline-frame", func(params []byte) (Job, error) {
			return Job{FrameJob: mapreduce.FrameJob{
				Mapper:   mapper,
				Combiner: combiner,
				Folder:   mapreduce.Assembled(combiner),
			}}, nil
		})
		// Each of notJobs, which lookupJob must refuse to instantiate.
		for name, nj := range notJobs() {
			RegisterJob("not-a-job/"+name, func([]byte) (Job, error) { return Job{FrameJob: nj.job}, nil })
		}
	})
}

// notJob is a FrameJob that is no job: of neither of the engine's two
// shapes, or — fed, only RunFrames refuses it — of one shape, fed the
// other's input.
type notJob struct {
	job      mapreduce.FrameJob
	feedOnly bool
}

// notJobs is what is not a job.
func notJobs() map[string]notJob {
	mapper, combiner := frameMapper, frameCombiner
	rows := mapreduce.SetRows(frameClusterData(50, 3, 2))
	blk, _ := points.BlockOf(frameClusterData(50, 3, 3))
	whole := mapreduce.WholeInput([][]*points.Block{{blk}})
	task, folder := driver.MergeJob(3, 0).TaskMapper, mapreduce.Assembled(nil)
	return map[string]notJob{
		"both mappers":                  {job: mapreduce.FrameJob{Feed: whole, Mapper: mapper, TaskMapper: task, Folder: folder}},
		"no mapper":                     {job: mapreduce.FrameJob{Feed: rows, Folder: folder}},
		"rows without a folder":         {job: mapreduce.FrameJob{Feed: rows, Mapper: mapper}},
		"task mapper with a folder":     {job: mapreduce.FrameJob{Feed: whole, TaskMapper: task, Folder: folder}},
		"task mapper with accumulators": {job: mapreduce.FrameJob{Feed: whole, TaskMapper: task, Accumulators: mapreduce.Staging}},
		"task mapper with a combiner":   {job: mapreduce.FrameJob{Feed: whole, TaskMapper: task, Combiner: combiner}},
		"task mapper over rows":         {job: mapreduce.FrameJob{Feed: rows, TaskMapper: task}, feedOnly: true},
		"row mapper over the whole":     {job: mapreduce.FrameJob{Feed: whole, Mapper: mapper, Folder: folder}, feedOnly: true},
	}
}

// frameClusterData builds a duplicate-heavy dataset.
func frameClusterData(n, d int, seed int64) points.Set {
	rng := rand.New(rand.NewSource(seed))
	data := make(points.Set, 0, n+n/5)
	for i := 0; i < n; i++ {
		p := make(points.Point, d)
		for j := range p {
			p[j] = float64(rng.Intn(30))
		}
		data = append(data, p)
	}
	for i := 0; i < n/5; i++ {
		data = append(data, data[i].Clone())
	}
	return data
}

// setFrames is a set as a job's input: each split v1 frames of at most
// WalkRows rows, framed from the set as the split is written. built, when
// non-nil, sees every frame written (under the caller's own
// synchronisation), keyed by its rows.
func setFrames(data points.Set, built func(lo, hi int, frame []byte)) Input {
	return FrameRows(len(data), func(lo, hi int) (int, error) {
		return points.FrameRowsLen(0, hi-lo, data.Dim()), nil
	}, func(dst []byte, lo, hi int) ([]byte, error) {
		mark := len(dst)
		dst, err := points.AppendFrameRows(dst, 0, data[lo:hi])
		if err == nil && built != nil {
			built(lo, hi, dst[mark:])
		}
		return dst, err
	})
}

// wholeBlockRows is the rows of a block of wholeFrames' candidates.
const wholeBlockRows = 256

// wholeFrames is a set, as blocks of wholeBlockRows rows, cut into the
// merging job's input over tasks groups (driver.MergeInput): each task's
// blocks a v1 frame and a split each. built, when not nil, sees every split
// written, keyed by its index in the job.
func wholeFrames(data points.Set, tasks int, built func(lo, hi int, frame []byte)) Input {
	var candidates []*points.Block
	for lo := 0; lo < len(data); lo += wholeBlockRows {
		blk, _ := points.BlockOf(data[lo:min(lo+wholeBlockRows, len(data))])
		candidates = append(candidates, blk)
	}
	inputs, err := driver.MergeInput(candidates, data.Dim(), tasks, 0)
	if err != nil {
		panic(err)
	}
	rows, blocks, first := make([]int, len(inputs)), make([]int, len(inputs)), make([]int, len(inputs))
	for t, in := range inputs {
		blocks[t] = len(in)
		for _, blk := range in {
			rows[t] += blk.Len()
		}
		if t > 0 {
			first[t] = first[t-1] + blocks[t-1]
		}
	}
	return WholeFrames(rows, blocks, func(t, b int) (int, error) {
		return points.FrameV1Len(0, inputs[t][b]), nil
	}, func(dst []byte, t, b int) ([]byte, error) {
		mark := len(dst)
		dst = points.AppendFrame(dst, 0, inputs[t][b])
		if built != nil {
			built(first[t]+b, first[t]+b+1, dst[mark:])
		}
		return dst, nil
	})
}

// splitBytes is split number split of in, of size rows a split, as the wire
// writes it.
func splitBytes(in Input, split, size int) ([]byte, error) {
	p, err := in.split(split, size)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err = p.writeTo(&buf, nil)
	return buf.Bytes(), err
}

// delivered is a reply taken by hand as a worker receives it: its split
// written out into Frames, as the wire writes it, and the reply sent.
func delivered(reply *TaskReply) *TaskReply {
	if reply.split.frame != nil {
		var buf bytes.Buffer
		if _, err := reply.split.writeTo(&buf, nil); err != nil {
			panic(err)
		}
		reply.Frames, reply.split = buf.Bytes(), payload{}
	}
	reply.sent()
	return reply
}

// requestTask is one RequestTask by hand, its reply delivered.
func requestTask(svc *MasterService, worker string) TaskReply {
	var task TaskReply
	_ = svc.RequestTask(TaskArgs{WorkerID: worker}, &task)
	return *delivered(&task)
}

// distinctSorted reduces a multiset to its sorted distinct points.
func distinctSorted(s points.Set) points.Set {
	out := s.Dedup()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// TestFramedJobMatchesClassic runs the skyline job on a 3-worker cluster
// and requires, per partition, the skyline a direct computation gives:
// the rows grouped by the job's routing rule, classic skyline.BNL of each
// group.
func TestFramedJobMatchesClassic(t *testing.T) {
	ensureFrameJobs()
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 100}, 3, WorkerConfig{})
	data := frameClusterData(1500, 4, 11)

	res, err := master.Run(context.Background(),
		JobSpec{Name: "skyline-frame", Reducers: 3}, setFrames(data, nil))
	if err != nil {
		t.Fatal(err)
	}
	requireFrameOracle(t, res, data)
}

// TestFramedShuffleMetrics checks the per-worker frame-byte series land in
// the master's registry with payload semantics: rpcmr_shuffle_bytes_total is
// exactly the map tasks' sealed output — the input frames the tasks were
// sent are booked under rpcmr_input_bytes_total and nowhere else — and one
// task is counted per worker's share and per reducer.
func TestFramedShuffleMetrics(t *testing.T) {
	ensureFrameJobs()
	reg := telemetry.NewRegistry()
	master, workers, _ := newCluster(t, MasterConfig{SplitSize: 200, Metrics: reg}, 2, WorkerConfig{})
	data := frameClusterData(800, 3, 7) // 960 rows: five splits, shared 3 + 2
	// What the map tasks must ship, from the same shares run here.
	job, err := lookupJob("skyline-frame", nil)
	if err != nil {
		t.Fatal(err)
	}
	var wantShuffle, wantInput int64
	input := setFrames(data, nil)
	shares := [][2]int{{0, 3}, {3, 5}}
	for _, share := range shares {
		split := func(i int) ([]byte, error) {
			s := share[0] + i
			frame, err := splitBytes(input, s, 200)
			wantInput += int64(len(frame))
			return frame, err
		}
		streams, _, err := mapreduce.MapFrames(job.FrameJob, share[1]-share[0], split, 0, 2, job.Codec)
		if err != nil {
			t.Fatal(err)
		}
		for _, stream := range streams {
			wantShuffle += int64(len(stream))
		}
	}
	if _, err := master.Run(context.Background(),
		JobSpec{Name: "skyline-frame", Reducers: 2}, input); err != nil {
		t.Fatal(err)
	}
	var shuffle, in int64
	for _, w := range workers {
		shuffle += reg.Counter("rpcmr_shuffle_bytes_total", telemetry.L("worker", w.cfg.ID)).Value()
		in += reg.Counter("rpcmr_input_bytes_total", telemetry.L("worker", w.cfg.ID)).Value()
	}
	if shuffle != wantShuffle {
		t.Errorf("rpcmr_shuffle_bytes_total = %d, want the map output's %d bytes (input frames are %d)", shuffle, wantShuffle, wantInput)
	}
	if in != wantInput {
		t.Errorf("rpcmr_input_bytes_total = %d, want the split frames' %d bytes", in, wantInput)
	}
	if done := reg.Counter("rpcmr_tasks_done_total").Value(); done != int64(len(shares))+2 {
		t.Errorf("rpcmr_tasks_done_total = %d, want %d map + 2 reduce tasks", done, len(shares))
	}
}

// sameJobRecord fails t unless res reports what want — a run of the same job
// over the same splits that lost no worker and saw no bad report — does:
// the same result blocks, every input row mapped once, and the counters,
// per-partition volumes and reducer peak of one accepted attempt per task.
// Retries and lost workers are the counters a faulty run may add, and
// stragglers are timing, which either run may book.
func sameJobRecord(t *testing.T, res, want *mapreduce.FrameResult, rows int) {
	t.Helper()
	if len(res.Blocks) == 0 || len(res.Blocks) != len(want.Blocks) {
		t.Fatalf("%d result blocks, %d without a fault", len(res.Blocks), len(want.Blocks))
	}
	for id, blk := range want.Blocks {
		if got := res.Blocks[id]; got == nil || !bytes.Equal(points.AppendFrame(nil, id, got), points.AppendFrame(nil, id, blk)) {
			t.Errorf("partition %d: result block differs from the no-fault run's", id)
		}
	}
	got, calm := res.Counters.Snapshot(), want.Counters.Snapshot()
	if got[mapreduce.CounterMapIn] != int64(rows) {
		t.Errorf("mr.map.records.in = %d, want the input's %d rows", got[mapreduce.CounterMapIn], rows)
	}
	for _, faults := range []string{mapreduce.CounterMapRetries, mapreduce.CounterRedRetries, mapreduce.CounterWorkerFailures} {
		delete(got, faults)
	}
	delete(got, mapreduce.CounterStragglers)
	delete(calm, mapreduce.CounterStragglers)
	if !reflect.DeepEqual(got, calm) {
		t.Errorf("counters %v, without a fault %v", got, calm)
	}
	if !reflect.DeepEqual(res.Partitions, want.Partitions) {
		t.Errorf("per-partition volumes %v, without a fault %v", res.Partitions, want.Partitions)
	}
	if res.ReducerPeakBytes != want.ReducerPeakBytes || res.MergePasses != want.MergePasses {
		t.Errorf("reducer peak %d bytes in %d passes, without a fault %d in %d",
			res.ReducerPeakBytes, res.MergePasses, want.ReducerPeakBytes, want.MergePasses)
	}
}

// TestFramedWorkerCrashRecovery: the frame path inherits the re-queue of a
// dead worker's task — a worker vanishing mid-job must not lose frames. The
// task it took to the grave is re-issued with a byte-identical input frame,
// and the job's result — blocks, counters, per-partition volumes, reducer peak
// — equals a run's that lost no worker: an attempt is counted once. So too
// for the merging job's kind of map task, which holds a group of the
// candidates and has the rows at or below its sums streamed past it: the
// group is killed again, by another worker from the same splits, and no row
// is kept twice or lost.
func TestFramedWorkerCrashRecovery(t *testing.T) {
	ensureFrameJobs()
	data := frameClusterData(1000, 3, 3)
	for _, job := range []string{"skyline-frame", "skyline-fold", "skyline-merge"} {
		input := func(built func(lo, hi int, frame []byte)) Input { return setFrames(data, built) }
		if job == "skyline-merge" {
			input = func(built func(lo, hi int, frame []byte)) Input { return wholeFrames(data, 5, built) }
		}
		calm, _, _ := newCluster(t, MasterConfig{SplitSize: 100}, 3, WorkerConfig{})
		want, err := calm.Run(context.Background(), JobSpec{Name: job, Reducers: 2}, input(nil))
		if err != nil {
			t.Fatal(err)
		}
		// Every reduce task reports what it held, whatever its folds are,
		// and every merge task its group's layout.
		if want.ReducerPeakBytes <= 0 || want.MergePasses < 1 {
			t.Fatalf("%s: no-fault run reports a reducer peak of %d bytes in %d passes", job, want.ReducerPeakBytes, want.MergePasses)
		}

		mcfg := MasterConfig{SplitSize: 100, LivenessWindow: 70 * time.Millisecond}
		master, _, doomed := newCluster(t, mcfg, 1, WorkerConfig{VanishAfterTasks: 2})
		// Three workers' shares, as on the calm cluster: the doomed worker maps
		// two and vanishes holding the third, and the healthy worker, which
		// joins once it has gone, must be re-issued it.
		idleWorkers(t, master, 2)
		joinAfter(t, master, doomed)
		log := newSplitLog(t)
		res, err := master.Run(context.Background(), JobSpec{Name: job, Reducers: 2}, input(log.built))
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt := log.count(); rebuilt == 0 || master.Status().WorkerFailures == 0 {
			t.Fatalf("no map task was re-issued (%d rebuilt frames): the crash did not trigger", rebuilt)
		}
		if res.Counters.Get(mapreduce.CounterMapRetries) == 0 || res.Counters.Get(mapreduce.CounterWorkerFailures) == 0 {
			t.Errorf("%s: counters %v do not book the retry and the lost worker", job, res.Counters.Snapshot())
		}
		sameJobRecord(t, res, want, len(data))
	}
}

// TestBadReportsNotCounted: the master sums the tallies of one accepted
// report per task. Every task here is reported three times by a hand-driven
// worker — failed (with tallies attached all the same), then done, then done
// again, late — and the job's record equals a run's that saw each task once.
func TestBadReportsNotCounted(t *testing.T) {
	ensureFrameJobs()
	data := frameClusterData(600, 3, 4)
	spec := JobSpec{Name: "skyline-fold", Reducers: 2}
	// One worker, as below: one share, so one map task.
	calm, _, _ := newCluster(t, MasterConfig{SplitSize: 100}, 1, WorkerConfig{})
	want, err := calm.Run(context.Background(), spec, setFrames(data, nil))
	if err != nil {
		t.Fatal(err)
	}

	// A request on an empty queue is held for half the liveness window: the
	// hand-driven worker below sits out one such hold, once the job is done.
	// Three windows are far more than any of its tasks takes, so it is never
	// found dead holding one.
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 100, LivenessWindow: 100 * time.Millisecond}, 0, WorkerConfig{})
	done := make(chan outcome, 1)
	go func() {
		res, err := master.Run(context.Background(), spec, setFrames(data, nil))
		done <- outcome{res, err}
	}()
	svc := &MasterService{m: master}
	failed := map[[2]int]bool{} // (kind, task) already reported failed once
	for {
		task := requestTask(svc, "hand")
		switch task.Kind {
		case TaskWait:
			select {
			case out := <-done:
				if out.err != nil {
					t.Fatal(out.err)
				}
				if out.res.Counters.Get(mapreduce.CounterMapRetries) != 1 || out.res.Counters.Get(mapreduce.CounterRedRetries) != 2 {
					t.Errorf("counters %v, want one retry per task: 1 map, 2 reduce", out.res.Counters.Snapshot())
				}
				sameJobRecord(t, out.res, want, len(data))
				return
			case <-time.After(time.Millisecond): // Run has not queued the tasks yet
			}
			continue
		case TaskMap, TaskReduce:
		default:
			t.Fatalf("task kind %d", task.Kind)
		}
		args := handTask(t, svc, "hand", &task)
		report := func(errMsg string) bool { // reports the task; no next one rides back
			args.Err = errMsg
			return reportTask(svc, args)
		}
		if key := [2]int{int(task.Kind), task.TaskID}; !failed[key] {
			failed[key] = true
			report("injected failure") // re-queued: the task comes round again
			continue
		}
		if !report("") {
			t.Errorf("kind %d task %d: the good report was not accepted", task.Kind, task.TaskID)
		}
		if report("") {
			t.Errorf("kind %d task %d: a second good report was accepted", task.Kind, task.TaskID)
		}
	}
}

// TestReportFromPastJobIgnored: a report that was still on its way when its
// job ended — two tasks of a doomed job fail at once, the first ends the job,
// the pipeline starts the next — carries that job's number and is dropped,
// not counted against the next job's task of the same id.
func TestReportFromPastJobIgnored(t *testing.T) {
	ensureFrameJobs()
	// The short window is for the task the hand-driven worker takes from
	// the second job and never runs: it falls silent, the health sweep finds
	// it dead, and the task is queued again.
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 100, LivenessWindow: 20 * time.Millisecond}, 0, WorkerConfig{})
	data := frameClusterData(300, 3, 6)
	spec := JobSpec{Name: "skyline-frame", Reducers: 1}
	svc := &MasterService{m: master}
	take := func() TaskReply {
		for {
			task := requestTask(svc, "hand")
			if task.Kind == TaskMap {
				return task
			}
			time.Sleep(time.Millisecond) // Run has not queued the tasks yet
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	past := make(chan error, 1)
	go func() {
		_, err := master.Run(ctx, spec, setFrames(data, nil))
		past <- err
	}()
	old := take()
	cancel()
	if err := <-past; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job: %v", err)
	}
	done := make(chan error, 1)
	var res *mapreduce.FrameResult
	go func() {
		var err error
		res, err = master.Run(context.Background(), spec, setFrames(data, nil))
		done <- err
	}()
	if next := take(); next.TaskID != old.TaskID || next.Job == old.Job {
		t.Fatalf("next job's first task is %d of job %d, the past job's %d of job %d", next.TaskID, next.Job, old.TaskID, old.Job)
	}
	for i := 0; i < 10; i++ { // twice what would fail the task for good
		reportTask(svc, ResultArgs{Kind: TaskMap, WorkerID: "hand", Job: old.Job, TaskID: old.TaskID, Err: "the past job's failure"})
	}
	w, err := NewWorker(WorkerConfig{MasterAddr: master.Addr(), ID: "w", PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	go func() { _ = w.Run(context.Background()) }()
	// The real worker runs every task, the held one once its holder is dead.
	if err := <-done; err != nil {
		t.Fatalf("the job after the past job's reports: %v", err)
	}
	if res.Counters.Get(mapreduce.CounterMapIn) != int64(len(data)) {
		t.Errorf("mr.map.records.in = %d, want %d", res.Counters.Get(mapreduce.CounterMapIn), len(data))
	}
}

// TestSplitBuiltOutsideMasterLock: while one worker's split is still being
// checked and sized, the master goes on answering everyone else —
// registrations, task requests (the next split is sized and handed out),
// health reads.
func TestSplitBuiltOutsideMasterLock(t *testing.T) {
	ensureFrameJobs()
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 100}, 0, WorkerConfig{})
	data := frameClusterData(300, 3, 5)
	entered, release := make(chan struct{}), make(chan struct{})
	input := FrameRows(len(data), func(lo, hi int) (int, error) {
		if lo == 0 {
			close(entered)
			<-release
		}
		return points.FrameRowsLen(0, hi-lo, 3), nil
	}, func(dst []byte, lo, hi int) ([]byte, error) {
		return points.AppendFrameRows(dst, 0, data[lo:hi])
	})
	// Two workers: two shares, the first of splits 0 and 1, the second of 2.
	svc := &MasterService{m: master}
	for _, id := range []string{"slow", "other"} {
		_ = svc.Register(RegisterArgs{WorkerID: id}, &RegisterReply{})
	}
	done := make(chan error, 1)
	go func() {
		_, err := master.Run(context.Background(), JobSpec{Name: "skyline-frame", Reducers: 1}, input)
		done <- err
	}()
	for master.Status().TasksTotal == 0 { // wait for Run to queue the map tasks
		time.Sleep(time.Millisecond)
	}
	held := make(chan TaskReply, 1)
	go func() { held <- requestTask(svc, "slow") }()
	<-entered // split 0's check is now blocked, off the lock
	answered := make(chan TaskReply, 1)
	go func() {
		_ = svc.Register(RegisterArgs{WorkerID: "newcomer"}, &RegisterReply{})
		reply := requestTask(svc, "other")
		_ = master.Health()
		answered <- reply
	}()
	select {
	case reply := <-answered:
		if reply.Kind != TaskMap || reply.TaskID != 1 || len(reply.Frames) == 0 {
			t.Errorf("second worker got kind %d task %d with %d frame bytes, want map task 1 with its frame",
				reply.Kind, reply.TaskID, len(reply.Frames))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RequestTask blocked behind another worker's split build")
	}
	close(release)
	if reply := <-held; reply.TaskID != 0 || len(reply.Frames) == 0 {
		t.Errorf("first worker got task %d with %d frame bytes, want task 0 with its frame", reply.TaskID, len(reply.Frames))
	}
	// Nobody will execute the two tasks handed out above; end the job.
	master.Close()
	if err := <-done; err == nil {
		t.Error("job finished though two of its map tasks were never executed")
	}
}

// TestRunRejectsWrongInputForm: an input whose splits cannot be built — or
// are too big to send — fails the job with an error naming the cause, and
// an Input that FrameRows did not build, or one of the wrong form for the
// job's mapper, is refused before any task exists.
func TestRunRejectsWrongInputForm(t *testing.T) {
	ensureFrameJobs()
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 100}, 2, WorkerConfig{})
	data := frameClusterData(300, 3, 9)
	run := func(job string, in Input) error {
		_, err := master.Run(context.Background(), JobSpec{Name: job, Reducers: 2}, in)
		return err
	}
	if err := run("skyline-frame", Input{}); err == nil || !strings.Contains(err.Error(), "FrameRows") {
		t.Errorf("zero Input: %v", err)
	}
	// A split whose rows fail their check fails the job before a byte of it
	// is written.
	var framed atomic.Int64
	broken := FrameRows(len(data), func(lo, hi int) (int, error) { return 0, errors.New("disk on fire") },
		func(dst []byte, lo, hi int) ([]byte, error) { framed.Add(1); return dst, nil })
	if err := run("skyline-frame", broken); err == nil || !strings.Contains(err.Error(), "disk on fire") || framed.Load() != 0 {
		t.Errorf("failing split source: %v, %d frames written", err, framed.Load())
	}
	// A task mapper needs the whole input in every task, a row mapper must
	// not get it: tasks of the other kind would each compute something, wrongly.
	if err := run("skyline-merge", setFrames(data, nil)); err == nil || !strings.Contains(err.Error(), "WholeFrames") {
		t.Errorf("task mapper over row splits: %v", err)
	}
	if err := run("skyline-frame", wholeFrames(data, 2, nil)); err == nil || !strings.Contains(err.Error(), "WholeFrames") {
		t.Errorf("row mapper over a whole input: %v", err)
	}
	if err := run("skyline-frame", setFrames(data, nil)); err != nil {
		t.Errorf("good job after the refused ones: %v", err)
	}
	if st := master.Status(); st.LiveWorkers != 2 {
		t.Errorf("%d of 2 workers alive", st.LiveWorkers)
	}

	// A master whose cap a 100-row split of 3-dim points (2400 bytes) exceeds.
	small, _, _ := newCluster(t, MasterConfig{SplitSize: 100}, 0, WorkerConfig{})
	small.maxSplit = 1000
	w, err := NewWorker(WorkerConfig{MasterAddr: small.Addr(), ID: "w"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	go func() { _ = w.Run(context.Background()) }()
	var written atomic.Int64
	_, err = small.Run(context.Background(), JobSpec{Name: "skyline-frame", Reducers: 2},
		setFrames(data, func(int, int, []byte) { written.Add(1) }))
	if err == nil || !strings.Contains(err.Error(), "SplitSize") {
		t.Errorf("oversized split: %v, want an error naming SplitSize", err)
	}
	if n := written.Load(); n != 0 {
		t.Errorf("%d frames of an oversized split written, want none", n)
	}
}

// TestHostileReduceStreamsRejected: a reduce task's frame streams crossed a
// wire, so what a worker does with bad ones is fail the task — a returned
// error from the one reduce body (mapreduce's FuzzReduceFramesStream holds it
// to more), under an assembling folder and a budgeted fold alike. And what
// is not a job (notJobs) runs nowhere: RunFrames refuses it, and so do
// MapFrames and lookupJob unless only its feed is wrong, which they do not
// read.
func TestHostileReduceStreamsRejected(t *testing.T) {
	ensureFrameJobs()
	rows := func(d int) *points.Block {
		blk, _ := points.BlockOf(frameClusterData(400, d, 8))
		return blk
	}
	good := points.AppendFrame(nil, 2, rows(3))
	flipped := bytes.Clone(good)
	flipped[0] ^= 0x7f
	for name, streams := range map[string][][]byte{
		"truncated":       {good, good[:len(good)-9]},
		"unknown version": {flipped},
		"mixed dimension": {good, points.AppendFrame(nil, 2, rows(4))},
	} {
		for _, jobName := range []string{"skyline-frame", "skyline-fold"} {
			job, err := lookupJob(jobName, nil)
			if err != nil {
				t.Fatal(err)
			}
			if out, _, err := executeReduce(job, &TaskReply{FrameStreams: streams}); err == nil {
				t.Errorf("%s, %s: reduce task returned %d bytes and no error", jobName, name, len(out[0]))
			}
		}
	}

	const notAShape, wrongFeed = "a job is a mapper with a folder, or a task mapper alone", "a row feed goes with a mapper"
	refused := func(err error, why string) bool { return err != nil && strings.Contains(err.Error(), why) }
	for name, nj := range notJobs() {
		why := notAShape
		if nj.feedOnly {
			why = wrongFeed
		}
		if _, err := mapreduce.RunFrames(context.Background(), mapreduce.Config{Name: name}, nj.job); !refused(err, why) {
			t.Errorf("%s: RunFrames did not refuse it with %q: %v", name, why, err)
		}
		if nj.feedOnly {
			continue
		}
		if _, _, err := mapreduce.MapFrames(nj.job, 1, func(int) ([]byte, error) { return good, nil }, 0, 2, points.FrameDefault); !refused(err, notAShape) {
			t.Errorf("%s: MapFrames did not refuse it: %v", name, err)
		}
		if _, err := lookupJob("not-a-job/"+name, nil); !refused(err, notAShape) {
			t.Errorf("%s: lookupJob instantiated it: %v", name, err)
		}
	}
}
