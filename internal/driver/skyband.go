package driver

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/points"
)

// ComputeSkyband runs the MapReduce k-skyband — the QoS-tolerant
// generalization of the skyline (points dominated by fewer than k others)
// that the paper's conclusion suggests as an extension. It is Compute with
// a more tolerant operator: the same two jobs of Algorithm 1, running
// skyline.Skyband(·, k) wherever the skyline runs its kernel.
//
//	Job 1: map points to partitions; the combiner and the reducer keep each
//	       map task's, then each partition's, local k-skyband (sound: a
//	       point with ≥ k dominators in any subset of the input has ≥ k
//	       dominators globally).
//
//	Job 2: count, for every surviving candidate, its dominators among all
//	       survivors and keep those with < k.
//
// Correctness of counting only among survivors: all dominators of a
// candidate p that were dropped in Job 1 had ≥ k dominators of their own,
// and by transitivity those dominate p too; in any finite dominance order
// with ≥ k elements above p, at least k of them have < k dominators
// themselves (the first k of any linear extension), so they survive Job 1
// and p's survivor-count reaches k whenever its global count does. The
// argument needs only that a pre-filter drops no point with < k dominators,
// so it holds for the per-map-task combiner as for the reducer.
//
// The skyline's shortcuts that one dominator justifies are off: no grid
// cell is pruned, and a reducer budget — whose folds are skyline folds — is
// an error.
func ComputeSkyband(ctx context.Context, data points.Set, k int, opts Options) (points.Set, *Stats, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("driver: skyband k = %d, need >= 1", k)
	}
	if opts.ReducerBudgetBytes > 0 {
		return nil, nil, errors.New("driver: k-skyband does not run under a reducer budget")
	}
	band, stats, _, err := compute(ctx, data, k, opts)
	return band, stats, err
}
