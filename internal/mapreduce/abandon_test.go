package mapreduce_test

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/points"
	"repro/internal/skyline"
)

// This test is external: dataset, whose chunk walk takes its piece size from
// mapreduce, generates its input.

// refusingFold fails its first Absorb.
type refusingFold struct{}

func (refusingFold) Absorb(*points.Block) error     { return errors.New("fold refuses") }
func (refusingFold) Finish() (*points.Block, error) { return nil, nil }

// TestAbandonedFoldsLeaveNoOverflowFile: a streaming reduce that returns
// early — a bad frame, another partition's fold failing — has folds it
// never finishes, and a budgeted fold that has overflowed holds a temp
// file until it is finished or closed. The engine closes what it created.
func TestAbandonedFoldsLeaveNoOverflowFile(t *testing.T) {
	const d = 4
	blk, _ := points.BlockOf(dataset.Generate(dataset.KindAnticorrelated, 3, 5000, d))
	assertEmpty := func(t *testing.T, dir string) {
		t.Helper()
		if left, err := os.ReadDir(dir); err != nil || len(left) > 0 {
			t.Errorf("%d files left in the folds' spill directory (first: %v), err %v", len(left), left[:min(len(left), 1)], err)
		}
	}
	t.Run("bad frame into ReduceFramesStream", func(t *testing.T) {
		dir := t.TempDir()
		stream := append(points.AppendFrame(nil, 0, blk), 0xff, 0xff, 0xff)
		_, _, err := mapreduce.ReduceFramesStream([][]byte{stream}, mapreduce.FrameJob{Folder: func(int) mapreduce.FrameFold {
			return skyline.NewBudgetedFold(d, 1024, dir, points.FrameDefault)
		}}, points.FrameDefault)
		if err == nil || !strings.Contains(err.Error(), "unsupported frame version 255") {
			t.Fatalf("err = %v, want the bad frame's", err)
		}
		assertEmpty(t, dir)
	})
	t.Run("another fold fails in RunFrames", func(t *testing.T) {
		// Partition 0's frame comes first in every sealed stream and
		// overflows its fold; partition 1's fold then refuses its frame.
		dir := t.TempDir()
		_, err := mapreduce.RunFrames(context.Background(), mapreduce.Config{Name: "abandoned", Workers: 2, Reducers: 1}, mapreduce.FrameJob{
			Feed: mapreduce.SetRows(blk.ToSet()),
			Mapper: func(row []float64, emit mapreduce.EmitPoint) error {
				if row[0] < 0.9 {
					emit(0, row)
				} else {
					emit(1, row)
				}
				return nil
			},
			Folder: func(p int) mapreduce.FrameFold {
				if p == 1 {
					return refusingFold{}
				}
				return skyline.NewBudgetedFold(d, 1024, dir, points.FrameDefault)
			},
		})
		if err == nil || !strings.Contains(err.Error(), "fold refuses") {
			t.Fatalf("err = %v, want the refusing fold's", err)
		}
		assertEmpty(t, dir)
	})
}
