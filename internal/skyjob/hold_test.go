package skyjob

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
	"repro/internal/skyline"
)

// TestNoWorkerWaitsOnATimer: workers whose PollInterval is an hour run two
// whole pipelines — unbudgeted, then under a 4 KiB reducer budget —
// beside a worker that dies holding a task and is restarted under its name,
// in under two seconds and to the oracle's skyline: every job start, phase
// change and re-queued task — the restarted worker's registration gives up
// the task it held — reaches them parked on the master. Cancelling a parked
// worker's Run returns at once, and after Drain and Close the master holds
// no request.
func TestNoWorkerWaitsOnATimer(t *testing.T) {
	master, err := rpcmr.NewMaster(rpcmr.MasterConfig{
		SplitSize:      200,
		LivenessWindow: time.Minute, // no hold runs out while this test lasts
	})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	type worker struct {
		cancel context.CancelFunc
		exit   chan error
	}
	launch := func(cfg rpcmr.WorkerConfig) (worker, error) {
		cfg.MasterAddr, cfg.PollInterval = master.Addr(), time.Hour
		w, err := rpcmr.NewWorker(cfg)
		if err != nil {
			return worker{}, err
		}
		t.Cleanup(func() { w.Close() })
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		exit := make(chan error, 1)
		go func() { exit <- w.Run(ctx) }()
		return worker{cancel, exit}, nil
	}
	start := func(cfg rpcmr.WorkerConfig) worker {
		w, err := launch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	began := time.Now()
	a, b := start(rpcmr.WorkerConfig{ID: "a"}), start(rpcmr.WorkerConfig{ID: "b"})
	doomed := start(rpcmr.WorkerConfig{ID: "doomed", VanishAfterTasks: 1})
	// The doomed worker's supervisor restarts it under the same ID once it
	// has crashed; the crash is passed on for the check below.
	crashed := make(chan error, 1)
	restarted := make(chan worker, 1)
	go func() {
		crashed <- <-doomed.exit
		w, err := launch(rpcmr.WorkerConfig{ID: "doomed"})
		if err != nil {
			t.Errorf("restarting the doomed worker: %v", err)
		}
		restarted <- w
	}()

	data := uniformSet(9, 3000, 4)
	want := skyline.BNL(data)
	spec, err := SpecFor(data, partition.Angular, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 4 << 10} {
		spec.ReducerBudgetBytes = budget
		if budget > 0 {
			spec.Codec = points.FrameAuto
		}
		res, err := ComputeSpec(context.Background(), master, data, spec, 2)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !sameMultiset(res.Skyline, want) {
			t.Errorf("budget %d: %d skyline points, oracle %d", budget, len(res.Skyline), len(want))
		}
	}
	if took := time.Since(began); took >= 2*time.Second {
		t.Errorf("two pipelines took %v with no worker able to poll, want < 2 s", took)
	}
	select {
	case err := <-crashed:
		if err == nil || !strings.Contains(err.Error(), "injected crash") {
			t.Errorf("the doomed worker exited with %v", err)
		}
	default:
		t.Error("the doomed worker is still running")
	}
	if st := master.Status(); st.WorkerFailures == 0 {
		t.Error("no task was lost: the crash did not trigger")
	}

	// The healthy workers are parked now. Cancel one.
	cancelled := time.Now()
	a.cancel()
	select {
	case err := <-a.exit:
		if took := time.Since(cancelled); !errors.Is(err, context.Canceled) || took >= 100*time.Millisecond {
			t.Errorf("a parked worker's Run returned %v, %v after its context was cancelled", err, took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a parked worker's Run did not return when its context was cancelled")
	}
	master.Drain()
	parked := []worker{b}
	select {
	case w := <-restarted:
		parked = append(parked, w)
	case <-time.After(5 * time.Second):
		t.Fatal("the doomed worker was not restarted")
	}
	for _, w := range parked {
		select {
		case err := <-w.exit:
			if err != nil {
				t.Errorf("a parked worker exited with %v on Drain, want nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a parked worker did not exit on Drain")
		}
	}
	master.Close()
	deadline := time.Now().Add(5 * time.Second)
	for buf := make([]byte, 1<<20); ; time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "MasterService).RequestTask") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a RequestTask handler is still running after Drain and Close:\n%s", stacks)
		}
	}
}
