package driver

import (
	"sort"

	"repro/internal/points"
	"repro/internal/telemetry"
)

// EXPLAIN is the read path's answer to "why was this query slow": instead
// of serving the cached global skyline, the query re-merges the local
// skylines with an instrumented BNL that attributes every dominance test
// to the partition whose candidate incurred it — the per-partition cost
// breakdown Ciaccia & Martinenghi's read-path analysis reads off-line,
// produced live per query. Totals are exact: the sum over partitions
// equals the merge's whole dominance-test count, so the plan reconciles
// against the global counters.

// PartitionExplain is one partition's share of an explained query.
type PartitionExplain struct {
	Partition int `json:"partition"`
	// Candidates is the partition's local skyline size — the rows it
	// contributed to the merge.
	Candidates int `json:"candidates"`
	// DominanceTests counts tests incurred while scanning this
	// partition's candidates against the merge window.
	DominanceTests int64 `json:"dominance_tests"`
	// Survivors counts this partition's candidates that made the global
	// skyline — the numerator of the paper's Eq. (5) ratio, per query.
	Survivors int `json:"survivors"`
}

// Explain is the plan breakdown of one explained skyline query.
type Explain struct {
	// Scheme names the partitioning scheme the index was built with.
	Scheme string `json:"scheme"`
	// PartitionsProbed is the number of partitions visited (all of them —
	// an explained query bypasses the cache).
	PartitionsProbed int `json:"partitions_probed"`
	// Candidates is the total candidate rows entering the merge.
	Candidates int64 `json:"candidates"`
	// DominanceTests is the merge's total test count (= Σ partitions).
	DominanceTests int64 `json:"dominance_tests"`
	// ResultSize is the merged global skyline size.
	ResultSize int `json:"result_size"`
	// Stages is the wall-time breakdown (snapshot, merge).
	Stages []telemetry.StageTiming `json:"stages"`
	// Partitions is the per-partition breakdown, ascending id.
	Partitions []PartitionExplain `json:"partitions"`
}

// ExplainMerge merges per-partition local skylines into the global
// skyline with a BNL whose dominance tests are attributed to the
// partition of the incoming candidate. scheme is echoed into the plan.
// The returned set shares point storage with the input.
func ExplainMerge(scheme string, local map[int]points.Set) (points.Set, *Explain) {
	ids := make([]int, 0, len(local))
	for id := range local {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	ex := &Explain{
		Scheme:           scheme,
		PartitionsProbed: len(ids),
		Partitions:       make([]PartitionExplain, 0, len(ids)),
	}
	for _, id := range ids {
		ex.Partitions = append(ex.Partitions, PartitionExplain{
			Partition:  id,
			Candidates: len(local[id]),
		})
		ex.Candidates += int64(len(local[id]))
	}

	var window points.Set
	var owners []int // owners[j] indexes ex.Partitions: the partition of window[j]
	for i, id := range ids {
		pe := &ex.Partitions[i]
		for _, p := range local[id] {
			dominated := false
			for j := 0; j < len(window); {
				pe.DominanceTests++
				q := window[j]
				if points.DominatesOrEqual(q, p) && !q.Equal(p) {
					// Window rows are mutually non-dominated, so p cannot
					// have evicted anyone before dying — stop without
					// repair (the classic BNL argument).
					dominated = true
					break
				}
				if points.Dominates(p, q) {
					last := len(window) - 1
					window[j], owners[j] = window[last], owners[last]
					window, owners = window[:last], owners[:last]
					continue
				}
				j++
			}
			if !dominated {
				window = append(window, p)
				owners = append(owners, i)
			}
		}
		ex.DominanceTests += pe.DominanceTests
	}
	for _, i := range owners {
		ex.Partitions[i].Survivors++
	}
	ex.ResultSize = len(window)
	return window, ex
}
