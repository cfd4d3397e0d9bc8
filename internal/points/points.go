// Package points defines the fundamental Point type used throughout the
// skyline library, together with dominance tests and point-set utilities.
//
// All code in this repository follows the paper's minimization convention:
// in every attribute dimension a lower value is better. Datasets whose raw
// attributes are "higher is better" (availability, throughput, ...) must be
// re-oriented before entering the library; see package qws.
package points

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/fan"
)

// Point is a position in a d-dimensional QoS data space. Index i holds the
// value of the i-th performance attribute. Points are treated as immutable
// by every algorithm in this repository; callers that mutate a Point after
// handing it to the library get undefined results.
type Point []float64

// Dim returns the number of attribute dimensions.
func (p Point) Dim() int { return len(p) }

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the point as "(v1, v2, ...)" with compact formatting.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatFloat(v, 'g', 6, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// Dominates reports whether p dominates q under minimization: p is less
// than or equal to q in every dimension and strictly less in at least one.
// Points of mismatched dimensionality never dominate each other.
func Dominates(p, q Point) bool {
	if len(p) != len(q) || len(p) == 0 {
		return false
	}
	strict := false
	for i := range p {
		switch {
		case p[i] > q[i]:
			return false
		case p[i] < q[i]:
			strict = true
		}
	}
	return strict
}

// DominatesOrEqual reports whether p is less than or equal to q in every
// dimension (weak dominance). Every point weakly dominates itself.
func DominatesOrEqual(p, q Point) bool {
	if len(p) != len(q) || len(p) == 0 {
		return false
	}
	for i := range p {
		if p[i] > q[i] {
			return false
		}
	}
	return true
}

// Sum returns the sum of the coordinates, a monotone scoring function used
// by sort-based skyline algorithms (SFS).
func (p Point) Sum() float64 {
	s := 0.0
	for _, v := range p {
		s += v
	}
	return s
}

// Norm returns the Euclidean norm, i.e. the radial hyperspherical
// coordinate r of the paper's Eq. (1).
func (p Point) Norm() float64 {
	s := 0.0
	for _, v := range p {
		s += v * v
	}
	return math.Sqrt(s)
}

// MinWith lowers each coordinate of p to the minimum of p and q in place.
// Both points must have the same dimension.
func (p Point) MinWith(q Point) {
	for i := range p {
		if q[i] < p[i] {
			p[i] = q[i]
		}
	}
}

// MaxWith raises each coordinate of p to the maximum of p and q in place.
// Both points must have the same dimension.
func (p Point) MaxWith(q Point) {
	for i := range p {
		if q[i] > p[i] {
			p[i] = q[i]
		}
	}
}

// Validate returns an error if the point contains NaN or infinite values or
// has zero dimensions. Negative values are allowed in general point sets;
// partitioners that require non-negative data perform their own checks.
func (p Point) Validate() error {
	if len(p) == 0 {
		return errors.New("points: zero-dimensional point")
	}
	for i, v := range p {
		if math.IsNaN(v) {
			return fmt.Errorf("points: NaN at dimension %d", i)
		}
		if math.IsInf(v, 0) {
			return fmt.Errorf("points: infinity at dimension %d", i)
		}
	}
	return nil
}

// Set is an ordered collection of points with shared dimensionality
// helpers. A Set does not enforce uniform dimension on construction; use
// Validate to check.
type Set []Point

// Dim returns the dimension of the first point, or 0 for an empty set.
func (s Set) Dim() int {
	if len(s) == 0 {
		return 0
	}
	return s[0].Dim()
}

// Clone deep-copies the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for i, p := range s {
		out[i] = p.Clone()
	}
	return out
}

// Validate checks that the set is non-empty, every point is finite, and all
// points share one dimensionality.
func (s Set) Validate() error {
	if len(s) == 0 {
		return errors.New("points: empty set")
	}
	return s.ValidateRows(0, len(s), s[0].Dim())
}

// ValidateRows is Validate over rows [lo, hi) of s against dimension d: the
// error Validate words for the first of them that is not d finite
// coordinates, nil when there is none. A caller that reads a set a range at
// a time validates it a range at a time.
func (s Set) ValidateRows(lo, hi, d int) error {
	for i := lo; i < hi; i++ {
		if !s[i].finite(d) {
			return s.rowError(i, d)
		}
	}
	return nil
}

// Bounds returns the coordinate-wise minimum and maximum corners of the
// set's bounding box. It panics on an empty set.
func (s Set) Bounds() (min, max Point) {
	if len(s) == 0 {
		panic("points: Bounds of empty set")
	}
	min = s[0].Clone()
	max = s[0].Clone()
	for _, p := range s[1:] {
		min.MinWith(p)
		max.MaxWith(p)
	}
	return min, max
}

// ValidateBounds is Validate and Bounds in one pass over the set: the same
// checks in the same order with the same error text, and on success the
// bounding box. Pipelines that need both call this instead of walking a
// pointer-chased set twice.
func (s Set) ValidateBounds() (min, max Point, err error) { return s.validateBounds(1) }

// boundsShareRows is the fewest rows ValidateBoundsOn gives a goroutine: at
// the pass's ~12 ns a row a share is then 0.1 ms of work, well clear of what
// starting and joining the goroutine costs.
const boundsShareRows = 1 << 13

// ValidateBoundsOn is ValidateBounds made on workers goroutines (0 means
// GOMAXPROCS), each over a contiguous share of the set, as far as shares of
// boundsShareRows rows go round: the same box bit for bit — the first row to
// reach an extreme keeps it, as in the serial pass — and on an invalid set
// the same error, that of the lowest offending row. One worker, or a set
// too short to share, makes the serial pass on the calling goroutine.
func (s Set) ValidateBoundsOn(workers int) (min, max Point, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(s)/boundsShareRows {
		workers = len(s) / boundsShareRows
	}
	return s.validateBounds(workers)
}

// validateBounds is the pass made on shares goroutines (at least one), each
// over a contiguous share of the set.
func (s Set) validateBounds(shares int) (lo, hi Point, err error) {
	if len(s) == 0 {
		return nil, nil, errors.New("points: empty set")
	}
	d := s[0].Dim()
	shares = max(shares, 1)
	los, his, bad := make([]Point, shares), make([]Point, shares), make([]int, shares)
	fan.Out(shares, func(k int) {
		from, to := fan.Cut(len(s), shares, k)
		los[k], his[k], bad[k] = s.scanBounds(from, to, d)
	})
	for k, i := range bad {
		if i >= 0 {
			return nil, nil, s.rowError(i, d)
		}
		switch {
		case los[k] == nil: // more shares than rows: an empty one
		case lo == nil:
			lo, hi = los[k], his[k]
		default:
			// Strict comparisons, shares in order: a tie stays with the earlier
			// row, as in one pass.
			lo.MinWith(los[k])
			hi.MaxWith(his[k])
		}
	}
	return lo, hi, nil
}

// scanBounds is the pass over rows [from, to): their bounding box, or in bad
// the first of them that is not d finite coordinates (-1 when all are).
func (s Set) scanBounds(from, to, d int) (lo, hi Point, bad int) {
	if from == to {
		return nil, nil, -1
	}
	if !s[from].finite(d) {
		return nil, nil, from
	}
	lo, hi = s[from].Clone(), s[from].Clone()
	for i := from + 1; i < to; i++ {
		p := s[i]
		if !p.finite(d) {
			return nil, nil, i
		}
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			} else if v > hi[j] {
				hi[j] = v
			}
		}
	}
	return lo, hi, -1
}

// ValidateBoundsOf is ValidateBounds over the listed rows of s — distinct
// indices in any order, at least one — and row 0, whose dimension every row
// must have: the bounding box of the listed rows, or the error Validate
// words for the lowest offending row among them and row 0. It reads no
// other row, so a fit to a sample of a set costs the sample, not the set.
func (s Set) ValidateBoundsOf(rows []int) (lo, hi Point, err error) {
	if len(s) == 0 {
		return nil, nil, errors.New("points: empty set")
	}
	d := s[0].Dim()
	bad := -1
	if !s[0].finite(d) {
		bad = 0
	}
	for _, i := range rows {
		if (bad < 0 || i < bad) && !s[i].finite(d) {
			bad = i
		}
	}
	if bad >= 0 {
		return nil, nil, s.rowError(bad, d)
	}
	lo, hi = s[rows[0]].Clone(), s[rows[0]].Clone()
	for _, i := range rows[1:] {
		lo.MinWith(s[i])
		hi.MaxWith(s[i])
	}
	return lo, hi, nil
}

// finite reports whether p is d > 0 finite coordinates.
func (p Point) finite(d int) bool {
	if d == 0 || len(p) != d {
		return false
	}
	for _, v := range p {
		if v-v != 0 { // NaN or ±Inf
			return false
		}
	}
	return true
}

// rowError is the error Validate words for row i of s, which is not d
// finite coordinates.
func (s Set) rowError(i, d int) error {
	if err := s[i].Validate(); err != nil {
		return fmt.Errorf("point %d: %w", i, err)
	}
	return fmt.Errorf("points: point %d has dimension %d, want %d", i, s[i].Dim(), d)
}

// Project returns a new set keeping only the first d dimensions of every
// point. It panics if any point has fewer than d dimensions.
func (s Set) Project(d int) Set {
	out := make(Set, len(s))
	for i, p := range s {
		if p.Dim() < d {
			panic(fmt.Sprintf("points: cannot project %d-dim point to %d dims", p.Dim(), d))
		}
		out[i] = p[:d].Clone()
	}
	return out
}

// Contains reports whether the set holds a point coordinate-equal to p.
func (s Set) Contains(p Point) bool {
	for _, q := range s {
		if q.Equal(p) {
			return true
		}
	}
	return false
}

// Key returns a canonical string key for a point, usable as a map key when
// deduplicating. Two points are coordinate-equal iff their keys match.
func Key(p Point) string {
	var b strings.Builder
	for i, v := range p {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.FormatFloat(v, 'b', -1, 64))
	}
	return b.String()
}

// Dedup returns the set with coordinate-duplicates removed, preserving the
// first occurrence order.
func (s Set) Dedup() Set {
	seen := make(map[string]struct{}, len(s))
	out := make(Set, 0, len(s))
	for _, p := range s {
		k := Key(p)
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, p)
	}
	return out
}
