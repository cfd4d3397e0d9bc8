// Package cluster is a discrete-event simulator of a Hadoop-style cluster
// executing the two-job MapReduce skyline pipeline. It substitutes for the
// paper's physical 4–32 server cluster (Figure 6): real algorithmic
// quantities — partition sizes, local skyline sizes, global skyline size,
// all measured from an actual run of the driver — are scheduled onto N
// virtual servers under a calibrated cost model, yielding the Map/Reduce
// wall-clock breakdown.
//
// The model reproduces the mechanisms behind the paper's curve:
//
//   - the map phase parallelizes across servers but is floored by
//     per-partition load imbalance (LPT scheduling of unequal tasks),
//   - the merge reduce is a single task and does not parallelize,
//   - each MapReduce job carries a fixed framework overhead (job setup,
//     scheduling, HDFS round trips) that no amount of servers removes,
//
// which together give sub-linear speedup that saturates as servers grow.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// CostModel holds the calibrated constants of the simulated cluster.
// Defaults (DefaultCostModel) are tuned so that the paper's headline
// configuration (100,000 services, 10 attributes, MR-Angle) lands in the
// same range as Figure 6 (≈230 s on 4 servers falling to ≈130 s on 32).
type CostModel struct {
	// JobOverhead is the fixed per-job framework cost (job submission,
	// task scheduling, HDFS setup). Hadoop 0.20-era jobs paid tens of
	// seconds regardless of input size.
	JobOverhead time.Duration
	// PerRecordDim is the map-side cost to parse, transform and emit one
	// record, per attribute dimension (covers the hyperspherical transform
	// of MR-Angle's map).
	PerRecordDim time.Duration
	// PerComparisonDim is the cost of one dominance comparison per
	// dimension inside the map-side BNL kernels (combiner plus reducer
	// pass over raw, heterogeneous partition contents).
	PerComparisonDim time.Duration
	// MergePerComparisonDim is the per-comparison cost of the reduce-side
	// global merge. It is substantially cheaper than the map-side
	// constant: the merge scans a compact, pre-filtered candidate set
	// (local skylines only) with cache-resident sequential window passes,
	// whereas the map side pays two BNL layers over raw partition data.
	// Both constants are calibrated jointly against Figure 6.
	MergePerComparisonDim time.Duration
	// BytesPerSecond is the effective shuffle bandwidth into a reducer.
	BytesPerSecond float64
	// TransferLatency is the fixed cost per map→reduce transfer stream.
	TransferLatency time.Duration
	// RecordBytesPerDim is the serialized size of one record per
	// dimension (8-byte float plus framing).
	RecordBytesPerDim int
}

// DefaultCostModel returns constants calibrated against Figure 6.
func DefaultCostModel() CostModel {
	return CostModel{
		JobOverhead:           18 * time.Second,
		PerRecordDim:          12 * time.Microsecond,
		PerComparisonDim:      400 * time.Nanosecond,
		MergePerComparisonDim: 25 * time.Nanosecond,
		BytesPerSecond:        24e6,
		TransferLatency:       25 * time.Millisecond,
		RecordBytesPerDim:     10,
	}
}

// Workload captures the algorithmic quantities of one dataset+method
// combination, measured from a real run (driver.Stats) or synthesized.
type Workload struct {
	// Records is the dataset cardinality N.
	Records int
	// Dim is the attribute dimensionality d.
	Dim int
	// PartitionSizes is the number of points in each partition.
	PartitionSizes []int
	// LocalSkylineSizes is the local skyline cardinality per partition
	// (parallel to PartitionSizes).
	LocalSkylineSizes []int
	// GlobalSkylineSize is the cardinality of the final skyline.
	GlobalSkylineSize int
}

// Validate checks structural consistency.
func (w Workload) Validate() error {
	if w.Records <= 0 || w.Dim <= 0 {
		return fmt.Errorf("cluster: workload needs positive records and dim")
	}
	if len(w.PartitionSizes) != len(w.LocalSkylineSizes) {
		return fmt.Errorf("cluster: %d partition sizes vs %d local skyline sizes",
			len(w.PartitionSizes), len(w.LocalSkylineSizes))
	}
	for i := range w.PartitionSizes {
		if w.LocalSkylineSizes[i] > w.PartitionSizes[i] {
			return fmt.Errorf("cluster: partition %d skyline %d exceeds size %d",
				i, w.LocalSkylineSizes[i], w.PartitionSizes[i])
		}
	}
	return nil
}

// LocalSkylineTotal is the number of records entering the merge job.
func (w Workload) LocalSkylineTotal() int {
	n := 0
	for _, s := range w.LocalSkylineSizes {
		n += s
	}
	return n
}

// Breakdown is the simulated wall-clock split of one run, mirroring the
// stacked bars of Figure 6.
type Breakdown struct {
	MapTime    time.Duration // partitioning job: map, transform, local skylines
	ReduceTime time.Duration // merging job: shuffle into one reducer + global BNL
	Servers    int
}

// Total returns MapTime + ReduceTime.
func (b Breakdown) Total() time.Duration { return b.MapTime + b.ReduceTime }

// bnlComparisons estimates dominance comparisons for a BNL pass over n
// points whose skyline has size s: each point scans a window that grows
// toward s, so roughly n·s/2 comparisons plus the n window insert checks.
func bnlComparisons(n, s int) int64 {
	return int64(n)*int64(s)/2 + int64(n)
}

// Simulate schedules the workload onto `servers` virtual servers and
// returns the simulated Map/Reduce breakdown.
func Simulate(w Workload, servers int, cm CostModel) (Breakdown, error) {
	if err := w.Validate(); err != nil {
		return Breakdown{}, err
	}
	if servers < 1 {
		return Breakdown{}, fmt.Errorf("cluster: need >= 1 server, got %d", servers)
	}

	// --- Partitioning job (the figure's "Map time") -------------------
	// Record-level map work spreads evenly: reading, transforming and
	// emitting every input record.
	recordWork := time.Duration(int64(w.Records) * int64(w.Dim) * int64(cm.PerRecordDim))
	evenMap := recordWork / time.Duration(servers)

	// Local skyline computation: one BNL task per partition, LPT-packed
	// onto servers. This is where load imbalance bites.
	tasks := make([]time.Duration, len(w.PartitionSizes))
	for i := range tasks {
		cmp := bnlComparisons(w.PartitionSizes[i], w.LocalSkylineSizes[i])
		tasks[i] = time.Duration(cmp * int64(w.Dim) * int64(cm.PerComparisonDim))
	}
	makespan := LPT(tasks, servers)

	mapTime := cm.JobOverhead + evenMap + makespan

	// --- Merging job (the figure's "Reduce time") ----------------------
	// All local skyline records stream into a single reducer.
	lsTotal := w.LocalSkylineTotal()
	bytes := float64(lsTotal * w.Dim * cm.RecordBytesPerDim)
	shuffle := time.Duration(bytes/cm.BytesPerSecond*float64(time.Second)) +
		time.Duration(len(w.PartitionSizes))*cm.TransferLatency
	mergeCmp := bnlComparisons(lsTotal, w.GlobalSkylineSize)
	mergeConst := cm.MergePerComparisonDim
	if mergeConst == 0 {
		mergeConst = cm.PerComparisonDim
	}
	merge := time.Duration(mergeCmp * int64(w.Dim) * int64(mergeConst))

	reduceTime := cm.JobOverhead + shuffle + merge

	return Breakdown{MapTime: mapTime, ReduceTime: reduceTime, Servers: servers}, nil
}

// LPT packs task durations onto `servers` machines using the classic
// Longest-Processing-Time-first greedy (sort descending, always assign to
// the least-loaded server) and returns the makespan.
func LPT(tasks []time.Duration, servers int) time.Duration {
	if len(tasks) == 0 || servers < 1 {
		return 0
	}
	sorted := slices.Clone(tasks)
	slices.SortFunc(sorted, func(a, b time.Duration) int { return cmp.Compare(b, a) })
	loads := make([]time.Duration, min(servers, len(sorted)))
	for _, t := range sorted {
		least := 0
		for i := range loads {
			if loads[i] < loads[least] {
				least = i
			}
		}
		loads[least] += t
	}
	return slices.Max(loads)
}

// Sweep simulates the workload-producing function over a range of server
// counts. The workloadFor callback regenerates the workload per server
// count, because the paper couples partition count to cluster size
// (partitions = 2 × servers).
func Sweep(serverCounts []int, cm CostModel, workloadFor func(servers int) (Workload, error)) ([]Breakdown, error) {
	out := make([]Breakdown, 0, len(serverCounts))
	for _, s := range serverCounts {
		w, err := workloadFor(s)
		if err != nil {
			return nil, err
		}
		b, err := Simulate(w, s, cm)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
