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
// goroutines; and, on both, the blocked merge under a 128 KiB budget on one
// goroutine: every group laid out and every candidate streamed past it
// (Kill). On a 2-vCPU Xeon, one goroutine: qws10 filters in 31–37 ms and
// ind6 in 15–17 (64–70 and 24–31 with median-mask groups walked row by
// row), and the blocked merges take 135–149 ms in 21 groups and 42–51 ms in
// 9 (317–348 and 71–80 ms in 21 and 10).
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
		b.Run(name+"/blocked/budget=128KiB", func(b *testing.B) { benchBlocked(b, blocks, 128<<10) })
	}
}

// benchBlocked times the blocked merge of blocks under budget, cut the way
// the driver cuts it (driver.blockedInput): pieces of an eighth of the
// budget streamed, and groups as large as keep a task's layout, dominator
// counts, piece and survivors within the budget.
func benchBlocked(b *testing.B, blocks []*points.Block, budget int64) {
	all := points.NewBlock(blocks[0].Dim(), 0)
	for _, blk := range blocks {
		all.AppendBlock(blk)
	}
	n, d := all.Len(), all.Dim()
	rowBytes := int64(d) * 8
	piece := int(budget / 8 / rowBytes)
	var stream []*points.Block
	for _, blk := range blocks {
		for lo := 0; lo < blk.Len(); lo += piece {
			stream = append(stream, blk.Slice(lo, min(lo+piece, blk.Len())))
		}
	}
	fits := 1
	for fits < n && LayoutBytes(fits+1, d)+int64(fits+1)*(4+rowBytes)+int64(piece)*rowBytes <= budget {
		fits++
	}
	k := (n + fits - 1) / fits
	b.ResetTimer()
	t0, kept := DominanceTests(), 0
	for i := 0; i < b.N; i++ {
		kept = 0
		for g := 0; g < k; g++ {
			f, err := NewFilter([]*points.Block{all.Slice(g*n/k, (g+1)*n/k)}, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			dominators := make([]int32, f.Len())
			for _, blk := range stream {
				if err := f.Kill(blk, dominators); err != nil {
					b.Fatal(err)
				}
			}
			kept += f.Alive(dominators, func([]float64) {})
		}
	}
	b.ReportMetric(float64(kept), "survivors")
	b.ReportMetric(float64(k), "groups")
	b.ReportMetric(float64(DominanceTests()-t0)/float64(b.N)/float64(n), "tests/row")
}
