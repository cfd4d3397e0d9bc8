package skyjob

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/driver"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/telemetry"
)

// TestClusterShipsWhatInProcessShips: a cluster map task is a worker's
// share of the splits, folded through one set of windows, as an in-process
// map task is a worker's share of the rows. On n = k·W·SplitSize points the
// shares' boundaries are driver.Compute's, so on W workers the cluster
// returns driver.Compute's local skylines row for row and books its counters
// to the unit — the partitioning job's shuffle bytes among them, partition by
// partition — from exactly W map tasks of k·SplitSize contiguous rows, and a
// second run ships the same count.
func TestClusterShipsWhatInProcessShips(t *testing.T) {
	const k = 3
	for _, workers := range []int{2, 3} {
		master := startCluster(t, workers)
		data := uniformSet(int64(60+workers), k*workers*clusterSplit, 5)
		spec, err := SpecFor(data, partition.Angular, 8)
		if err != nil {
			t.Fatal(err)
		}
		inRec := telemetry.NewRecorder("in process")
		sky, want, err := driver.Compute(telemetry.WithRecorder(context.Background(), inRec), data,
			driver.Options{Scheme: partition.Angular, Partitions: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var shipped []int64
		for run := 0; run < 2; run++ {
			rec, tr := telemetry.NewRecorder("cluster"), telemetry.NewTracer()
			res, err := ComputeSpec(telemetry.WithTracer(telemetry.WithRecorder(context.Background(), rec), tr), master, data, spec, workers)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Stats
			if !sameMultiset(res.Skyline, sky) || !reflect.DeepEqual(got.LocalSkylines, want.LocalSkylines) {
				t.Errorf("%d workers: the cluster's skylines differ from driver.Compute's", workers)
			}
			if !reflect.DeepEqual(got.Counters, want.Counters) {
				t.Errorf("%d workers: counters\n  %v on the cluster,\n  %v in process", workers, got.Counters, want.Counters)
			}
			for id, p := range inRec.Report().Partitions {
				if q := rec.Report().Partitions[id]; p.ShuffleBytes != q.ShuffleBytes {
					t.Errorf("%d workers: partition %d ships %d bytes on the cluster, %d in process", workers, id, q.ShuffleBytes, p.ShuffleBytes)
				}
			}
			shipped = append(shipped, got.Counters[mapreduce.CounterShuffleBytes])

			// Job 1's map tasks: one per worker, task i its i-th share of rows.
			maps := partitionMapTasks(tr)
			if len(maps) != workers {
				t.Errorf("%d workers: %d map tasks completed, want one per worker", workers, len(maps))
			}
			rows := map[int]int{}
			for _, s := range maps {
				attrs := map[string]any{}
				for _, a := range s.Attrs {
					attrs[a.Key] = a.Value
				}
				task, _ := attrs["task"].(int)
				rows[task], _ = attrs["records"].(int)
				if attempt, _ := attrs["attempt"].(int); attempt != 0 {
					t.Errorf("%d workers: map task %d ran %d times", workers, task, attempt+1)
				}
			}
			for task := 0; task < workers; task++ {
				if rows[task] != k*clusterSplit {
					t.Errorf("%d workers: map task %d mapped %d rows, want its share's %d", workers, task, rows[task], k*clusterSplit)
				}
			}
		}
		if shipped[0] != shipped[1] || shipped[0] <= 0 {
			t.Errorf("%d workers: two runs shipped %v bytes", workers, shipped)
		}
	}
}
