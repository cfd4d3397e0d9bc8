// Package metrics implements the paper's evaluation metrics: the local
// skyline optimality of Eq. (5) (Section VI) and the dominance-ability
// analysis of Theorems 1 and 2 (Section IV), both in closed form and as
// Monte-Carlo estimates over point sets.
package metrics

import (
	"math/rand"

	"repro/internal/points"
)

// LocalSkylineOptimality computes Eq. (5): the average, over partitions
// with a non-empty local skyline, of the fraction of local skyline
// services that are also global skyline services,
//
//	(1/N) Σ_i |sky_i ∩ sky_global| / |sky_i|
//
// A higher value means local decisions more often coincide with the global
// optimum — the QoS-assurance property the paper claims for MR-Angle.
// Partitions with empty local skylines do not contribute. Returns 0 when
// no partition has a local skyline.
func LocalSkylineOptimality(local map[int]points.Set, global points.Set) float64 {
	survivors := GlobalSurvivors(local, global)
	sum, n := 0.0, 0
	for id, sky := range local {
		if len(sky) > 0 {
			sum += float64(survivors[id]) / float64(len(sky))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// GlobalSurvivors counts, per partition, the local skyline points that
// also appear in the global skyline — the numerator of the Eq. (5)
// ratio, and the raw count the flight recorder reports beside it.
// Partitions with empty local skylines get 0.
func GlobalSurvivors(local map[int]points.Set, global points.Set) map[int]int {
	globalKeys := make(map[string]struct{}, len(global))
	for _, p := range global {
		globalKeys[points.Key(p)] = struct{}{}
	}
	out := make(map[int]int, len(local))
	for id, sky := range local {
		hits := 0
		for _, p := range sky {
			if _, ok := globalKeys[points.Key(p)]; ok {
				hits++
			}
		}
		out[id] = hits
	}
	return out
}

// ---------------------------------------------------------------------------
// Dominance ability (Section IV)
//
// The paper analyses a 2-D square data space of side 2L divided into 4
// partitions, and a skyline service at (x, y) with y ≤ x/2 sitting in the
// partition nearest the x-axis. Theorem 1 gives the area-based dominance
// ability of that service under angular partitioning; Theorem 2 lower
// bounds the advantage over grid partitioning.

// DominanceAbilityAngle computes Theorem 1's closed form
//
//	D_angle = (L² − x²/4 − (2L−x)·y) / L²
//
// for a service at (x, y) in a square of half-side L.
func DominanceAbilityAngle(x, y, l float64) float64 {
	return (l*l - x*x/4 - (2*l-x)*y) / (l * l)
}

// DominanceAbilityGrid computes the grid counterpart used in Theorem 2's
// proof,
//
//	D_grid = (L−x)(L−y) / L²
func DominanceAbilityGrid(x, y, l float64) float64 {
	return (l - x) * (l - y) / (l * l)
}

// DominanceGapLowerBound computes Theorem 2's lower bound
//
//	ΔD ≥ x/(2L²) · (L − x/2)
func DominanceGapLowerBound(x, l float64) float64 {
	return x / (2 * l * l) * (l - x/2)
}

// MonteCarloDominance estimates, by sampling `samples` uniform points in
// the square [0,2L]², the fraction of the service's partition area that a
// service at (x, y) dominates, under either the angular 4-sector or the
// grid 2×2 partitioning of the square. It is the empirical check of the
// paper's area arguments.
//
// Note the sector geometry: Theorem 1's setup ("y ≤ x/2", sector area L²)
// implies the four sectors are bounded by the lines of slope 1/2, 1 and 2
// — equal-AREA sectors of the square — not equal angle intervals. The
// Monte-Carlo check therefore uses those tangent boundaries.
func MonteCarloDominance(x, y, l float64, angular bool, samples int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	svc := points.Point{x, y}
	svcPart := squarePartition(x, y, l, angular)
	inPart, dominated := 0, 0
	for i := 0; i < samples; i++ {
		px, py := rng.Float64()*2*l, rng.Float64()*2*l
		if squarePartition(px, py, l, angular) != svcPart {
			continue
		}
		inPart++
		if points.Dominates(svc, points.Point{px, py}) {
			dominated++
		}
	}
	if inPart == 0 {
		return 0
	}
	return float64(dominated) / float64(inPart)
}

// squarePartition assigns a point of the [0,2L]² square to one of 4
// partitions: equal-area angular sectors with tangent boundaries
// {1/2, 1, 2} (Theorem 1's geometry) or grid quadrants.
func squarePartition(x, y, l float64, angular bool) int {
	if angular {
		switch {
		case y <= x/2:
			return 0
		case y <= x:
			return 1
		case y <= 2*x:
			return 2
		default:
			return 3
		}
	}
	id := 0
	if x >= l {
		id |= 1
	}
	if y >= l {
		id |= 2
	}
	return id
}

// ---------------------------------------------------------------------------
// Dominance ability over real point sets

// EmpiricalDominanceAbility computes the paper's point-count definition
// D_si = Num_si / Num_all for a service against a concrete dataset: the
// fraction of all other services it dominates.
func EmpiricalDominanceAbility(s points.Point, all points.Set) float64 {
	if len(all) == 0 {
		return 0
	}
	n := 0
	for _, q := range all {
		if points.Dominates(s, q) {
			n++
		}
	}
	return float64(n) / float64(len(all))
}
