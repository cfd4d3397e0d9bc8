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
// beside a worker that dies holding a task under a 50 ms lease, in under
// two seconds and to the oracle's skyline: every job start, phase change
// and re-queued task reaches them parked on the master. Cancelling a parked
// worker's Run returns at once, and after Drain and Close the master holds
// no request.
func TestNoWorkerWaitsOnATimer(t *testing.T) {
	master, err := rpcmr.NewMaster(rpcmr.MasterConfig{
		SplitSize:      200,
		TaskLease:      50 * time.Millisecond,
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
	start := func(cfg rpcmr.WorkerConfig) worker {
		cfg.MasterAddr, cfg.PollInterval = master.Addr(), time.Hour
		w, err := rpcmr.NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		exit := make(chan error, 1)
		go func() { exit <- w.Run(ctx) }()
		return worker{cancel, exit}
	}
	began := time.Now()
	a, b := start(rpcmr.WorkerConfig{ID: "a"}), start(rpcmr.WorkerConfig{ID: "b"})
	doomed := start(rpcmr.WorkerConfig{ID: "doomed", VanishAfterTasks: 1})

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
	case err := <-doomed.exit:
		if err == nil || !strings.Contains(err.Error(), "injected crash") {
			t.Errorf("the doomed worker exited with %v", err)
		}
	default:
		t.Error("the doomed worker is still running")
	}
	if st := master.Status(); st.WorkerFailures == 0 {
		t.Error("no lease ran out: the crash did not trigger")
	}

	// Both healthy workers are parked now. Cancel one.
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
	select {
	case err := <-b.exit:
		if err != nil {
			t.Errorf("the other worker exited with %v on Drain, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a parked worker did not exit on Drain")
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
