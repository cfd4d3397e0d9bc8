package skyline

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/qws"
)

// The benchmarks behind the constants in window.go and parallel.go; their
// comments quote these rows. The merge's own are in filter_bench_test.go.

func benchInputs() map[string]*points.Block {
	out := map[string]*points.Block{}
	for name, s := range map[string]points.Set{
		"qws10": qws.Extend(qws.Generate(2012, 10000, 10), 11, 50000),
		"ind6":  dataset.Independent(11, 200000, 6),
		"anti4": dataset.Anticorrelated(11, 100000, 4),
		"corr6": dataset.Correlated(11, 200000, 6),
	} {
		out[name], _ = points.BlockOf(s)
	}
	return out
}

// BenchmarkWindowBNL is one BlockBNL over each input, with the coordinate
// tests per point the signatures left: the row maxLevels, firstFit,
// refitGrowth and plainPrefix were swept on.
func BenchmarkWindowBNL(b *testing.B) {
	for name, blk := range benchInputs() {
		b.Run(name, func(b *testing.B) {
			t0 := DominanceTests()
			for i := 0; i < b.N; i++ {
				BlockBNL(blk)
			}
			b.ReportMetric(float64(DominanceTests()-t0)/float64(b.N)/float64(blk.Len()), "tests/pt")
		})
	}
}

// BenchmarkMapSideFold is the map side of a job on ind_d6's shape: two
// tasks, each folding its half of an independent d = 6 stream into one
// Window per angular partition as the rows are routed. Nearly every arrival
// dies, so the row is the cost of finding a dominator — what the promotion
// rule in window.scan was chosen on.
func BenchmarkMapSideFold(b *testing.B) {
	const tasks, partitions = 2, 8
	data := dataset.Independent(11, 1000000, 6)
	p, err := partition.New(partition.Angular, data, partitions)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int, len(data))
	for i, pt := range data {
		if ids[i], err = p.Assign(pt); err != nil {
			b.Fatal(err)
		}
	}
	wins := make([]*Window, p.Partitions())
	for i := range wins {
		wins[i] = NewWindow()
	}
	t0 := DominanceTests()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for task := 0; task < tasks; task++ {
			lo, hi := task*len(data)/tasks, (task+1)*len(data)/tasks
			for k := lo; k < hi; k++ {
				wins[ids[k]].Add(data[k])
			}
			for _, w := range wins {
				w.Reset()
			}
		}
	}
	b.ReportMetric(float64(DominanceTests()-t0)/float64(b.N)/float64(len(data)), "tests/pt")
}

// BenchmarkCutoffs measures the fan-out decision at two workers: a
// sequential BlockBNL against two halves side by side plus their merge
// (parallelCutoff).
func BenchmarkCutoffs(b *testing.B) {
	for name, all := range benchInputs() {
		if name == "corr6" {
			continue // skylines of a few rows: nothing to fan out or merge
		}
		for _, n := range []int{256, 1024, 4096, 16384, 32768, 50000} {
			blk := all.Slice(0, n)
			b.Run(fmt.Sprintf("local/%s/n=%d/sequential", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					BlockBNL(blk)
				}
			})
			b.Run(fmt.Sprintf("local/%s/n=%d/fanout2", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					parts := []*points.Block{blk.Slice(0, n/2), blk.Slice(n/2, n)}
					var wg sync.WaitGroup
					for k := range parts {
						wg.Add(1)
						go func(k int) {
							defer wg.Done()
							parts[k] = BlockBNL(parts[k])
						}(k)
					}
					wg.Wait()
					if _, err := mergeBlocks(context.Background(), parts, 2); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
