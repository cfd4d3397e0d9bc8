package mapreduce

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/points"
)

// doorLog records, per partition, which way each frame a reduce task folded
// came in: "sealed" (AbsorbSealed) or "absorb". Safe for concurrent use.
type doorLog struct {
	mu    sync.Mutex
	doors map[int][]string
}

// folder returns folds that log their frames and stage them, as Assembled
// with no operator.
func (l *doorLog) folder() FrameFolder {
	l.doors = map[int][]string{}
	return func(p int) FrameFold { return &doorFold{log: l, p: p, blk: points.NewBlock(0, 0)} }
}

// of returns the log of partition p.
func (l *doorLog) of(p int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.doors[p]
}

type doorFold struct {
	log *doorLog
	p   int
	blk *points.Block
}

func (f *doorFold) note(door string, blk *points.Block) error {
	f.log.mu.Lock()
	f.log.doors[f.p] = append(f.log.doors[f.p], door)
	f.log.mu.Unlock()
	f.blk.AppendBlock(blk)
	return nil
}

func (f *doorFold) Absorb(blk *points.Block) error       { return f.note("absorb", blk) }
func (f *doorFold) AbsorbSealed(blk *points.Block) error { return f.note("sealed", blk) }
func (f *doorFold) Finish() (*points.Block, error)       { return f.blk, nil }

// TestSealedDoorFollowsTheJob: a reduce task takes a frame in by
// AbsorbSealed exactly when the job's accumulators seal skylines (they are
// NewAccumulators') and no Combiner rewrites the seal — not for staged
// rows, or a combiner over windows or staged rows — and each of the map
// tasks that routed rows to a partition seals it exactly one frame, for
// the partition's reducer.
func TestSealedDoorFollowsTheJob(t *testing.T) {
	const parts, workers, rows = 5, 3, 600
	data := make(points.Set, rows)
	for i := range data {
		data[i] = points.Point{float64(i), float64((i * 7919) % rows)} // every task's share meets every partition
	}
	for _, tc := range []struct {
		name   string
		accs   *Accumulators
		comb   FrameCombiner
		sealed bool
	}{
		{"skyline windows", windows, nil, true},
		{"skyline windows and a combiner", windows, blockBNLCombiner, false},
		{"staged rows", nil, nil, false},
		{"Staging set explicitly", Staging, nil, false},
		{"staged rows and a combiner", nil, blockBNLCombiner, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log doorLog
			job := FrameJob{
				Feed: SetRows(data),
				Mapper: func(row []float64, emit EmitPoint) error {
					emit(int(row[0])%parts, row)
					return nil
				},
				Accumulators: tc.accs,
				Combiner:     tc.comb,
				Folder:       log.folder(),
			}
			if _, err := RunFrames(context.Background(), Config{Name: "doors", Workers: workers, Reducers: 2}, job); err != nil {
				t.Fatal(err)
			}
			want := "absorb"
			if tc.sealed {
				want = "sealed"
			}
			for p := 0; p < parts; p++ {
				if doors := log.of(p); fmt.Sprint(doors) != fmt.Sprint([]string{want, want, want}) {
					t.Errorf("partition %d: frames came in by %v; want one per map task, each by %s", p, doors, want)
				}
			}
		})
	}
}
