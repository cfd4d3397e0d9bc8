// Distributed: a complete master + workers skyline computation over real
// TCP RPC, all in one process for easy running. The same code paths power
// the cmd/skymaster and cmd/skyworker binaries across machines.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	skymr "repro"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/rpcmr"
	"repro/internal/skyjob"
)

func main() {
	// Start a master on a random local port.
	master, err := rpcmr.NewMaster(rpcmr.MasterConfig{Addr: "127.0.0.1:0", SplitSize: 500})
	if err != nil {
		log.Fatal(err)
	}
	defer master.Close()
	fmt.Printf("master listening on %s\n", master.Addr())

	// Launch four workers, each a TCP client pulling tasks. An idle worker
	// waits parked on the master, so a job's tasks reach it at once.
	var workers sync.WaitGroup
	for i := 0; i < 4; i++ {
		// NewWorker returns once the worker is registered with the master.
		w, err := rpcmr.NewWorker(rpcmr.WorkerConfig{
			MasterAddr: master.Addr(),
			ID:         fmt.Sprintf("worker-%d", i),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer w.Close()
		workers.Add(1)
		go func() {
			defer workers.Done()
			if err := w.Run(context.Background()); err != nil {
				log.Printf("worker: %v", err)
			}
		}()
	}
	// Teardown, in order: the master tells every worker to stop (Run then
	// returns nil), the workers are waited for, the listener closes.
	defer workers.Wait()
	defer master.Drain()
	fmt.Printf("%d workers connected\n\n", master.WorkerCount())

	// Run the two-job skyline pipeline for each method and cross-check
	// against the sequential reference.
	data := skymr.GenerateQWS(7, 5000, 5)
	seq := skymr.Skyline(data)
	agree := true
	for _, scheme := range []partition.Scheme{partition.Dimensional, partition.Grid, partition.Angular} {
		start := time.Now()
		res, err := skyjob.Compute(context.Background(), master, data, scheme, 8, 4)
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Skyline) != len(seq) {
			agree = false
		}
		// res.Stats is the record driver.Compute returns in process.
		st := res.Stats
		fmt.Printf("%-9s skyline=%4d of %d  partitions=%d  localSkyline=%d points  shuffle=%d B  dominanceTests=%d  wall=%s\n",
			scheme, len(res.Skyline), len(data), st.Partitions, st.LocalSkylineTotal(),
			st.Counters[mapreduce.CounterShuffleBytes], st.DominanceTests,
			time.Since(start).Round(time.Millisecond))
	}
	fmt.Printf("\nsequential reference: %d skyline services — all methods agree: %v\n",
		len(seq), agree)
}
