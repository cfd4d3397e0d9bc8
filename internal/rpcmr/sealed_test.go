package rpcmr

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/points"
	"repro/internal/skyline"
)

// doors records, per partition, which way each frame the workers' reduce
// tasks folded for the sealed-doors jobs came in: "sealed" (AbsorbSealed) or
// "absorb".
var doors struct {
	sync.Mutex
	of map[int][]string
}

type doorFold struct {
	p   int
	blk *points.Block
}

func (f *doorFold) note(door string, blk *points.Block) error {
	doors.Lock()
	doors.of[f.p] = append(doors.of[f.p], door)
	doors.Unlock()
	f.blk.AppendBlock(blk)
	return nil
}

func (f *doorFold) Absorb(blk *points.Block) error       { return f.note("absorb", blk) }
func (f *doorFold) AbsorbSealed(blk *points.Block) error { return f.note("sealed", blk) }
func (f *doorFold) Finish() (*points.Block, error)       { return f.blk, nil }

var sealedJobsOnce sync.Once

// ensureSealedJobs registers sealed-doors — rows routed by first coordinate
// into skyline windows, reduced by doorFolds — and sealed-doors-combined,
// the same with a combiner over the seal.
func ensureSealedJobs() {
	ensureJobs()
	sealedJobsOnce.Do(func() {
		windows := mapreduce.NewAccumulators(func() mapreduce.Accumulator { return skyline.NewWindow() })
		job := func(combiner mapreduce.FrameCombiner) Job {
			return Job{FrameJob: mapreduce.FrameJob{
				Mapper: func(row []float64, emit mapreduce.EmitPoint) error {
					emit(int(row[0])%frameParts, row)
					return nil
				},
				Accumulators: windows,
				Combiner:     combiner,
				Folder: func(p int) mapreduce.FrameFold {
					return &doorFold{p: p, blk: points.NewBlock(0, 0)}
				},
			}}
		}
		RegisterJob("sealed-doors", func([]byte) (Job, error) { return job(nil), nil })
		RegisterJob("sealed-doors-combined", func([]byte) (Job, error) {
			return job(func(_ int, blk *points.Block) (*points.Block, error) { return skyline.BlockBNL(blk), nil }), nil
		})
	})
}

// TestSealedDoorOnTheCluster is mapreduce's TestSealedDoorFollowsTheJob on a
// two-worker cluster: each of the two map tasks seals every partition
// exactly one frame, for the partition's reducer, and the worker's reduce
// task takes it in by AbsorbSealed when the job's windows declare their
// seals skylines and no combiner rewrites them, by Absorb when one does.
func TestSealedDoorOnTheCluster(t *testing.T) {
	ensureSealedJobs()
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 100}, 2, WorkerConfig{})
	data := make(points.Set, 600) // six splits, three a task: every task's share meets every partition
	for i := range data {
		data[i] = points.Point{float64(i), float64((i * 7919) % len(data))}
	}
	for name, want := range map[string]string{"sealed-doors": "sealed", "sealed-doors-combined": "absorb"} {
		doors.Lock()
		doors.of = map[int][]string{}
		doors.Unlock()
		if _, err := master.Run(context.Background(), JobSpec{Name: name, Reducers: 2}, setFrames(data, nil)); err != nil {
			t.Fatal(err)
		}
		doors.Lock()
		for p := 0; p < frameParts; p++ {
			if got := doors.of[p]; fmt.Sprint(got) != fmt.Sprint([]string{want, want}) {
				t.Errorf("%s: partition %d's frames came in by %v; want one per map task, each by %s", name, p, got, want)
			}
		}
		doors.Unlock()
	}
}
