package skyline

import (
	"context"
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

// BenchmarkMergeFilter is the merging job's work on three candidate sets —
// qws_d10's 13 k local-skyline rows, ind_d6's 8.9 k, and the 603 of 200 k
// anti-correlated d=4 rows — on one and two goroutines: the sort, then a
// group of equal pair work a goroutine, laid out and killed by the rows at
// or below its sums (mergeBlocks, as ParallelBlock runs it); and under a
// 128 KiB budget on one goroutine, the sort and the driver's budget-sized
// groups of equal counts, fed in pieces of an eighth of the budget. On a
// 2-vCPU Xeon (EXPERIMENTS.md "One merge"): qws10 merges in 30–38 ms on one
// goroutine and 19–22 on two, ind6 in 17–20 and 11–13, and the budgeted
// merges take 52–62 ms in 21 groups and 20–23 ms in 9.
func BenchmarkMergeFilter(b *testing.B) {
	for name, data := range map[string]points.Set{
		"qws10": qws.Extend(qws.Generate(2012, 10000, 10), 2012, 50000),
		"ind6":  dataset.Independent(2012, 1000000, 6),
		"anti4": dataset.Anticorrelated(2012, 200000, 4),
	} {
		blocks := localSkylines(b, data)
		n, d := 0, data.Dim()
		for _, blk := range blocks {
			n += blk.Len()
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/merge/goroutines=%d", name, workers), func(b *testing.B) {
				t0, kept := DominanceTests(), 0
				for i := 0; i < b.N; i++ {
					out, err := mergeBlocks(context.Background(), blocks, d, workers)
					if err != nil {
						b.Fatal(err)
					}
					kept = out.Len()
				}
				b.ReportMetric(float64(kept), "survivors")
				b.ReportMetric(float64(DominanceTests()-t0)/float64(b.N)/float64(n), "tests/row")
			})
		}
		b.Run(name+"/blocked/budget=128KiB", func(b *testing.B) { benchBlocked(b, blocks, n, d, 128<<10) })
	}
}

// benchBlocked times the merge of blocks under budget, cut the way the
// driver cuts it (driver.MergeInput): pieces of an eighth of the budget
// streamed, and groups of equal counts as large as keep a task's layout,
// piece and survivors within the budget.
func benchBlocked(b *testing.B, blocks []*points.Block, n, d int, budget int64) {
	rowBytes := int64(d) * 8
	piece := int(budget / 8 / rowBytes)
	fits := 1
	for fits < n && LayoutBytes(fits+1, d)+int64(fits+1+min(piece, n))*rowBytes <= budget {
		fits++
	}
	k := (n + fits - 1) / fits
	ends := make([]int, k)
	for g := range ends {
		ends[g] = (g + 1) * n / k
	}
	t0, kept := DominanceTests(), 0
	for i := 0; i < b.N; i++ {
		s, err := Sort(blocks, d, 1)
		if err != nil {
			b.Fatal(err)
		}
		kept = 0
		for g := range ends {
			out, _, _, err := MergeTask(stream(s.Input(ends, g, piece)), d, 0)
			if err != nil {
				b.Fatal(err)
			}
			kept += out.Len()
		}
	}
	b.ReportMetric(float64(kept), "survivors")
	b.ReportMetric(float64(k), "groups")
	b.ReportMetric(float64(DominanceTests()-t0)/float64(b.N)/float64(n), "tests/row")
}
