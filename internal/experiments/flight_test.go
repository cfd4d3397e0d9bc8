package experiments

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/qws"
	"repro/internal/telemetry"
)

// TestFlightRecorderMatchesFigure7: the flight recorder's live
// per-partition optimality must equal the offline Eq. (5) computation
// the Figure 7 experiment performs — same seeded QWS sample, same
// driver run, compared within 1e-9 — for every partitioning method.
// This pins the recorder as a faithful runtime view of the paper's
// metric, not a parallel approximation that can drift.
func TestFlightRecorderMatchesFigure7(t *testing.T) {
	data := qws.Dataset(2012, 3000, 5)
	for _, scheme := range Methods {
		rec := telemetry.NewRecorder(fmt.Sprintf("skyline:%s", scheme))
		ctx := telemetry.WithRecorder(context.Background(), rec)
		global, stats, err := driver.Compute(ctx, data, driver.Options{Scheme: scheme, Nodes: 4})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}

		// Offline, exactly as Figure7 computes it.
		offline := metrics.LocalSkylineOptimality(stats.LocalSkylines, global)
		survivors := metrics.GlobalSurvivors(stats.LocalSkylines, global)

		rep := rec.Report()
		if math.Abs(rep.Optimality-offline) > 1e-9 {
			t.Errorf("%v: recorder optimality %.12f, offline Eq. (5) %.12f",
				scheme, rep.Optimality, offline)
		}
		if rep.GlobalSkyline != len(global) {
			t.Errorf("%v: recorder global skyline %d, driver %d",
				scheme, rep.GlobalSkyline, len(global))
		}
		for _, p := range rep.Partitions {
			local := len(stats.LocalSkylines[p.Partition])
			if local == 0 {
				// Partitions with an empty local skyline have no ratio
				// offline and must read 0 in the recorder too.
				if p.Optimality != 0 || p.LocalSkyline != 0 {
					t.Errorf("%v p%d: recorder has opt %.12f sky %d, offline has an empty local skyline",
						scheme, p.Partition, p.Optimality, p.LocalSkyline)
				}
				continue
			}
			if want := float64(survivors[p.Partition]) / float64(local); math.Abs(p.Optimality-want) > 1e-9 {
				t.Errorf("%v p%d: recorder optimality %.12f, offline %.12f",
					scheme, p.Partition, p.Optimality, want)
			}
			if got := len(stats.LocalSkylines[p.Partition]); got != p.LocalSkyline {
				t.Errorf("%v p%d: recorder local skyline %d, driver %d",
					scheme, p.Partition, p.LocalSkyline, got)
			}
		}
		// Per-partition input counts mirror the driver's occupancy.
		for id, n := range stats.PartitionCounts {
			if id >= len(rep.Partitions) {
				break
			}
			if rep.Partitions[id].InputRecords != int64(n) {
				t.Errorf("%v p%d: recorder input %d, driver occupancy %d",
					scheme, id, rep.Partitions[id].InputRecords, n)
			}
		}
	}
}
