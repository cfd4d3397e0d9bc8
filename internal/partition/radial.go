package partition

import (
	"fmt"
	"sort"

	"repro/internal/points"
)

// AngularRadialPartitioner is the hybrid the paper implicitly argues
// *against*: sectors by angle (as MR-Angle) further split into radial
// shells by distance from the origin. Shells multiply the partition count
// without adding angular resolution — but each shell holds one quality
// band of its sector, so inner shells dominate outer ones wholesale, local
// skylines of outer shells are globally worthless, and the optimality
// metric collapses toward MR-Grid's. It exists as the ablation that makes
// the paper's "sectors must span the full quality gradient" argument
// measurable.
type AngularRadialPartitioner struct {
	angular *AngularPartitioner
	// shellCuts[sector] holds shells−1 increasing radius boundaries fitted
	// per sector (equi-depth).
	shellCuts [][]float64
	shells    int
}

// FitAngularRadial fits sectors×shells partitions: `sectors` angular
// sectors (recursive equi-depth, as FitAngular) each split into `shells`
// equi-depth radial shells.
func FitAngularRadial(data points.Set, sectors, shells int) (*AngularRadialPartitioner, error) {
	if shells < 1 {
		return nil, fmt.Errorf("partition: shells %d, need >= 1", shells)
	}
	ang, err := FitAngular(data, sectors)
	if err != nil {
		return nil, err
	}
	// Collect radii per sector.
	radii := make([][]float64, ang.Partitions())
	for _, p := range data {
		id, err := ang.Assign(p)
		if err != nil {
			return nil, err
		}
		shifted := make(points.Point, len(p))
		for i := range p {
			shifted[i] = p[i] - ang.offset[i]
		}
		radii[id] = append(radii[id], shifted.Norm())
	}
	cuts := make([][]float64, ang.Partitions())
	for sector, rs := range radii {
		sort.Float64s(rs)
		c := make([]float64, shells-1)
		for q := 1; q < shells; q++ {
			if len(rs) == 0 {
				c[q-1] = 0
				continue
			}
			idx := q * len(rs) / shells
			if idx >= len(rs) {
				idx = len(rs) - 1
			}
			c[q-1] = rs[idx]
		}
		cuts[sector] = c
	}
	return &AngularRadialPartitioner{angular: ang, shellCuts: cuts, shells: shells}, nil
}

// Name implements Partitioner.
func (a *AngularRadialPartitioner) Name() string { return "MR-AngleRadial" }

// Partitions implements Partitioner.
func (a *AngularRadialPartitioner) Partitions() int {
	return a.angular.Partitions() * a.shells
}

// Assign implements Partitioner.
func (a *AngularRadialPartitioner) Assign(p points.Point) (int, error) {
	sector, err := a.angular.Assign(p)
	if err != nil {
		return 0, err
	}
	shifted := make(points.Point, len(p))
	for i := range p {
		v := p[i] - a.angular.offset[i]
		if v < 0 {
			v = 0
		}
		shifted[i] = v
	}
	return sector*a.shells + cutBucket(a.shellCuts[sector], shifted.Norm()), nil
}

// Sectors returns the underlying angular partition count.
func (a *AngularRadialPartitioner) Sectors() int { return a.angular.Partitions() }

// The shell radius is the hyperspherical r of the paper's Eq. (1),
// measured from the fitted origin.
var _ Partitioner = (*AngularRadialPartitioner)(nil)
