package skyline

import (
	"fmt"

	"repro/internal/points"
)

// Skyband computes the k-skyband: the points dominated by fewer than k
// other points. The 1-skyband is exactly the skyline. The operator is the
// natural QoS-tolerant extension the paper's conclusion gestures at for
// further research — a client willing to accept "almost optimal" services
// asks for the k-skyband instead of the skyline, trading optimality for
// choice.
//
// Coordinate-equal duplicates do not dominate each other, mirroring the
// dominance convention used everywhere in this repository. k must be
// ≥ 1.
func Skyband(s points.Set, k int) (points.Set, error) {
	if k < 1 {
		return nil, fmt.Errorf("skyline: skyband k = %d, need >= 1", k)
	}
	out := make(points.Set, 0, 16)
	for i, p := range s {
		dominators := 0
		for j, q := range s {
			if i == j {
				continue
			}
			if points.DominatesOrEqual(q, p) && !q.Equal(p) {
				dominators++
				if dominators >= k {
					break
				}
			}
		}
		if dominators < k {
			out = append(out, p)
		}
	}
	return out, nil
}

// TopKDominating returns the k points that dominate the most other points
// — the "most influential services" query, the aggregate dual of the
// skyline (the paper's §IV dominance-ability metric turned into an
// operator). Ties break toward earlier input position for determinism.
func TopKDominating(s points.Set, k int) points.Set {
	if k <= 0 || len(s) == 0 {
		return nil
	}
	if k > len(s) {
		k = len(s)
	}
	type scored struct {
		idx, dominated int
	}
	scores := make([]scored, len(s))
	for i, p := range s {
		n := 0
		for j, q := range s {
			if i == j {
				continue
			}
			if points.DominatesOrEqual(p, q) && !p.Equal(q) {
				n++
			}
		}
		scores[i] = scored{idx: i, dominated: n}
	}
	// Partial selection: k is small; simple selection sort of the top k.
	for a := 0; a < k; a++ {
		best := a
		for b := a + 1; b < len(scores); b++ {
			if scores[b].dominated > scores[best].dominated ||
				(scores[b].dominated == scores[best].dominated && scores[b].idx < scores[best].idx) {
				best = b
			}
		}
		scores[a], scores[best] = scores[best], scores[a]
	}
	out := make(points.Set, k)
	for i := 0; i < k; i++ {
		out[i] = s[scores[i].idx]
	}
	return out
}
