// Package skyline implements sequential skyline (maxima-of-a-vector-set)
// algorithms over point sets under the minimization convention.
//
// The paper's MapReduce methods use the Block-Nested-Loops algorithm (BNL,
// Börzsönyi et al., ICDE 2001) as the local and global skyline kernel; this
// package additionally provides Sort-Filter-Skyline (SFS) and a
// divide-and-conquer algorithm. Those are test oracles and the operators of
// the ablation rows (internal/experiments edits them into a job value); no
// product path selects a kernel.
package skyline

import (
	"sort"

	"repro/internal/points"
)

// Func is the signature shared by all sequential skyline kernels: it
// returns the subset of s not dominated by any other point of s. The
// classic kernels return references to (not copies of) the input points;
// the flat-memory kernel (FlatBNL) returns fresh coordinate-equal points,
// and its result order is unspecified. Duplicate coordinate-equal points
// are all retained if undominated, matching BNL's classical behaviour.
type Func func(s points.Set) points.Set

// BNL computes the skyline with the block-nested-loops algorithm: maintain
// a window of current skyline candidates; each incoming point is dropped if
// dominated by a window point, otherwise it evicts every window point it
// dominates and joins the window. With the whole input in memory a single
// pass suffices (no temp-file iterations are needed, unlike disk-based
// BNL).
func BNL(s points.Set) points.Set {
	window := make(points.Set, 0, 16)
	for _, p := range s {
		dominated := false
		w := window[:0]
		for _, q := range window {
			if dominated {
				w = append(w, q)
				continue
			}
			if points.DominatesOrEqual(q, p) && !q.Equal(p) {
				// q dominates p: p dies; keep the remaining window as-is.
				dominated = true
				w = append(w, q)
				continue
			}
			if !points.Dominates(p, q) {
				w = append(w, q)
			}
		}
		window = w
		if !dominated {
			window = append(window, p)
		}
	}
	return window
}

// SFS computes the skyline by first sorting on the monotone sum score and
// then filtering: once sorted, no later point can dominate an earlier one,
// so each point is only compared against the already-accepted skyline.
// The sum key is computed once per point into a slice — calling Sum()
// inside the comparator would redo the O(d) reduction O(n log n) times.
func SFS(s points.Set) points.Set {
	keys := make([]float64, len(s))
	order := make([]int, len(s))
	for i, p := range s {
		keys[i] = p.Sum()
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return keys[order[i]] < keys[order[j]]
	})
	sky := make(points.Set, 0, 16)
	for _, i := range order {
		p := s[i]
		dominated := false
		for _, q := range sky {
			if points.DominatesOrEqual(q, p) && !q.Equal(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, p)
		}
	}
	return sky
}

// DivideConquer computes the skyline by splitting the input in two halves
// at the median of the first dimension, recursing, and merging: points of
// the high half survive only if not dominated by a surviving point of the
// low half.
func DivideConquer(s points.Set) points.Set {
	if len(s) <= 32 {
		return BNL(s)
	}
	sorted := make(points.Set, len(s))
	copy(sorted, s)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i][0] < sorted[j][0]
	})
	return dcRec(sorted)
}

func dcRec(s points.Set) points.Set {
	if len(s) <= 32 {
		return BNL(s)
	}
	mid := len(s) / 2
	low := dcRec(s[:mid])
	high := dcRec(s[mid:])
	// Every low-half point precedes every high-half point on dim 0, so no
	// high point dominates a low point unless coordinate-equal ties exist;
	// a full dominance check against the low skyline is still required for
	// the high points.
	merged := make(points.Set, 0, len(low)+len(high))
	merged = append(merged, low...)
	for _, p := range high {
		dominated := false
		for _, q := range low {
			if points.DominatesOrEqual(q, p) && !q.Equal(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			merged = append(merged, p)
		}
	}
	// Ties on dim 0 across the split can let a "high" point dominate a
	// "low" point; a final BNL pass restores exactness at negligible cost
	// because merged is already near-skyline.
	return BNL(merged)
}

// Naive computes the skyline by comparing all pairs; O(n²) but trivially
// correct, used as the oracle in tests and for tiny inputs.
func Naive(s points.Set) points.Set {
	out := make(points.Set, 0, 16)
	for i, p := range s {
		dominated := false
		for j, q := range s {
			if i == j {
				continue
			}
			if points.DominatesOrEqual(q, p) && !q.Equal(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}
