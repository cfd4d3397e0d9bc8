// Package hyper implements the Cartesian ↔ hyperspherical coordinate
// transform of the paper's Eq. (1) and (2), used by the angular
// partitioner.
//
// For an n-dimensional point s = (v1, ..., vn) the hyperspherical
// coordinates are the radius
//
//	r = sqrt(v1² + ... + vn²)
//
// and n−1 angles defined by
//
//	tan(φ1)   = sqrt(v2² + ... + vn²) / v1
//	tan(φ2)   = sqrt(v3² + ... + vn²) / v2
//	...
//	tan(φn−1) = vn / vn−1
//
// For non-negative data (the QoS setting) every angle lies in [0, π/2];
// the partitioner relies on that range. Points with all-zero suffixes are
// assigned angle 0 by convention, and a zero denominator with a positive
// numerator yields π/2, both consistent with the atan2 limit.
package hyper

import (
	"fmt"
	"math"

	"repro/internal/points"
)

// Coordinates holds a point in hyperspherical form.
type Coordinates struct {
	R      float64   // radial coordinate
	Angles []float64 // n−1 angular coordinates, each in [0, π/2] for non-negative input
}

// ToHyperspherical converts a Cartesian point of dimension ≥ 2 to
// hyperspherical coordinates. It returns an error for points of dimension
// < 2 (there is no angle to partition on) or non-finite input.
func ToHyperspherical(p points.Point) (Coordinates, error) {
	c := Coordinates{Angles: make([]float64, max(len(p)-1, 0))}
	r, err := AnglesInto(c.Angles, p)
	if err != nil {
		return Coordinates{}, err
	}
	c.R = r
	return c, nil
}

// anglesStackDim bounds the dimension for which AnglesInto works on a
// stack buffer; higher dimensions fall back to a heap slice.
const anglesStackDim = 16

// AnglesInto is ToHyperspherical writing the len(p)−1 angles into dst
// (which must have that length) and returning the radius — the same
// checks and the same arithmetic, without allocating for dimensions up to
// 16. Callers transforming many points use it to keep the angles in one
// slab.
func AnglesInto(dst []float64, p points.Point) (r float64, err error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	n := len(p)
	if n < 2 {
		return 0, fmt.Errorf("hyper: need dimension >= 2, got %d", n)
	}
	// suffix[i] = sqrt(p[i]² + ... + p[n−1]²), computed back to front from
	// a running sum of squares. One Sqrt per element instead of the Hypot
	// chain — Hypot's overflow guard costs ~4× per call and QoS data is
	// nowhere near the ±1e154 range where the guard matters (the transform
	// of such input degrades to +Inf radius and π/2 angles, still finite
	// and bucketable).
	var buf [anglesStackDim + 1]float64
	suffix := buf[:]
	if n > anglesStackDim {
		suffix = make([]float64, n+1)
	}
	suffix[n] = 0
	s := 0.0
	for i := n - 1; i >= 0; i-- {
		s += p[i] * p[i]
		suffix[i] = math.Sqrt(s)
	}
	dst = dst[:n-1]
	for i := range dst {
		// tan(φi) = suffix[i+1] / p[i]; atan2 handles p[i] == 0.
		dst[i] = math.Atan2(suffix[i+1], p[i])
	}
	return suffix[0], nil
}

// FromHyperspherical converts back to Cartesian coordinates. For input
// produced by ToHyperspherical from non-negative data the round trip is
// exact up to floating-point error.
func FromHyperspherical(c Coordinates) points.Point {
	n := len(c.Angles) + 1
	p := make(points.Point, n)
	// v1 = r cos φ1
	// v2 = r sin φ1 cos φ2
	// ...
	// vn = r sin φ1 ... sin φn−1
	prod := c.R
	for i := 0; i < n-1; i++ {
		p[i] = prod * math.Cos(c.Angles[i])
		prod *= math.Sin(c.Angles[i])
	}
	p[n-1] = prod
	return p
}

// MaxAngle is the upper bound of each angular coordinate for non-negative
// data.
const MaxAngle = math.Pi / 2

// AnglesOf is a convenience wrapper returning only the angular coordinates.
func AnglesOf(p points.Point) ([]float64, error) {
	c, err := ToHyperspherical(p)
	if err != nil {
		return nil, err
	}
	return c.Angles, nil
}
