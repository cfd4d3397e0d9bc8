package skyline

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/qws"
)

// localSkylines is what Job 2 is handed: the BlockBNL skyline of each of
// the 8 angular partitions of data, in partition order.
func localSkylines(tb testing.TB, data points.Set) []*points.Block {
	tb.Helper()
	part, err := partition.New(partition.Angular, data, 8)
	if err != nil {
		tb.Fatal(err)
	}
	blocks := make([]*points.Block, part.Partitions())
	for i := range blocks {
		blocks[i] = points.NewBlock(data.Dim(), 0)
	}
	for _, p := range data {
		id, err := part.Assign(p)
		if err != nil {
			tb.Fatal(err)
		}
		blocks[id].AppendRow(p)
	}
	for i, blk := range blocks {
		blocks[i] = BlockBNL(blk)
	}
	return blocks
}

// BenchmarkMergeFilter is the merging job's kernel on the benchmark's two
// candidate sets — qws_d10's 13 k local-skyline rows and ind_d6's 8.9 k —
// with the build and the filtering timed apart, each on one and two
// goroutines.
func BenchmarkMergeFilter(b *testing.B) {
	for name, data := range map[string]points.Set{
		"qws10": qws.Extend(qws.Generate(2012, 10000, 10), 2012, 50000),
		"ind6":  dataset.Independent(2012, 1000000, 6),
	} {
		blocks := localSkylines(b, data)
		f, err := NewFilter(blocks, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, builders := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/build/builders=%d", name, builders), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := NewFilter(blocks, 0, builders); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(f.Len()), "rows")
			})
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/filter/goroutines=%d", name, workers), func(b *testing.B) {
				t0, kept := DominanceTests(), 0
				for i := 0; i < b.N; i++ {
					kept = f.Survivors(workers).Len()
				}
				b.ReportMetric(float64(kept), "survivors")
				b.ReportMetric(float64(DominanceTests()-t0)/float64(b.N)/float64(f.Len()), "tests/row")
			})
		}
	}
}
