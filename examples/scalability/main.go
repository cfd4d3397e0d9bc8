// Scalability: the Figure 6 experiment in miniature. A real MR-Angle run
// measures the algorithmic workload (partition sizes, local skylines,
// global skyline), and the cluster simulator schedules that workload onto
// 4..32 virtual servers, printing the Map/Reduce wall-clock split — the
// paper's stacked-bar figure as a table.
//
//	go run ./examples/scalability
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	skymr "repro"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/partition"
)

func main() {
	const n, d = 20000, 10
	fmt.Printf("workload: %d services x %d attributes, MR-Angle, partitions = 2 x servers\n\n", n, d)
	data := skymr.GenerateQWS(2012, n, d)

	cm := cluster.DefaultCostModel()
	// The default model is calibrated for the paper's 100,000-service
	// workload; at this example's miniature 20,000 the fixed Hadoop-era
	// job overhead would swamp the compute, so scale it down to keep the
	// curve legible. Run `skybench -run 6 -scale full` for the calibrated
	// full-scale figure.
	cm.JobOverhead = 4 * time.Second
	fmt.Printf("%-9s%12s%12s%12s%10s\n", "servers", "map", "reduce", "total", "speedup")
	var base time.Duration
	for _, servers := range []int{4, 8, 12, 16, 20, 24, 28, 32} {
		w, err := experiments.WorkloadFor(context.Background(), data, partition.Angular, servers, 4)
		if err != nil {
			log.Fatal(err)
		}
		b, err := cluster.Simulate(w, servers, cm)
		if err != nil {
			log.Fatal(err)
		}
		if servers == 4 {
			base = b.Total()
		}
		fmt.Printf("%-9d%12s%12s%12s%9.2fx\n",
			servers,
			b.MapTime.Round(time.Millisecond),
			b.ReduceTime.Round(time.Millisecond),
			b.Total().Round(time.Millisecond),
			float64(base)/float64(b.Total()))
	}
	fmt.Println("\nnote: sub-linear speedup that saturates — the Map side parallelizes,")
	fmt.Println("the merge Reduce and per-job overhead do not (paper Fig. 6).")
}
