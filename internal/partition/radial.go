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

// FitAngularRadial fits sectors×shells partitions: MR-Angle's sectors, as
// New fits them, each split into `shells` equi-depth radial shells fitted
// over every row.
func FitAngularRadial(data points.Set, sectors, shells int) (*AngularRadialPartitioner, error) {
	if shells < 1 {
		return nil, fmt.Errorf("partition: shells %d, need >= 1", shells)
	}
	part, err := New(Angular, data, sectors)
	if err != nil {
		return nil, err
	}
	ang := part.(*AngularPartitioner)
	// Collect radii per sector.
	radii := make([][]float64, ang.Partitions())
	for _, p := range data {
		id, err := ang.Assign(p)
		if err != nil {
			return nil, err
		}
		radii[id] = append(radii[id], ang.radius(p))
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
	return sector*a.shells + cutBucket(a.shellCuts[sector], a.angular.radius(p)), nil
}

// radius is p's distance from the fitted origin, with the coordinates below
// it clamped as Assign clamps them: the hyperspherical r of Eq. (1).
func (a *AngularPartitioner) radius(p points.Point) float64 {
	shifted := make(points.Point, len(p))
	for i := range p {
		shifted[i] = max(p[i]-a.offset[i], 0)
	}
	return shifted.Norm()
}

// Sectors returns the underlying angular partition count.
func (a *AngularRadialPartitioner) Sectors() int { return a.angular.Partitions() }

var _ Partitioner = (*AngularRadialPartitioner)(nil)
