// Package partition implements the three data-space partitioning schemes
// compared in the paper — dimensional (MR-Dim), grid (MR-Grid) and angular
// (MR-Angle) — plus a random baseline. A Partitioner assigns every point of
// the data space to one of a fixed number of partitions; the MapReduce
// skyline jobs compute a local skyline per partition and merge them.
package partition

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"repro/internal/hyper"
	"repro/internal/points"
)

// Scheme identifies a partitioning scheme.
type Scheme int

const (
	// Dimensional splits the data space into equal ranges along a single
	// dimension (paper §III-A, MR-Dim).
	Dimensional Scheme = iota
	// Grid splits every dimension into equal ranges, forming a Cartesian
	// grid of cells (paper §III-B, MR-Grid).
	Grid
	// Angular maps points to hyperspherical coordinates and grids the
	// angular subspace (paper §III-C, MR-Angle — the new method).
	Angular
	// Random assigns points to partitions by a coordinate hash; an extra
	// baseline not in the paper, useful for ablations.
	Random
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case Dimensional:
		return "MR-Dim"
	case Grid:
		return "MR-Grid"
	case Angular:
		return "MR-Angle"
	case Random:
		return "MR-Random"
	default:
		return "Unknown"
	}
}

// Schemes lists the paper's three schemes in presentation order.
func Schemes() []Scheme { return []Scheme{Dimensional, Grid, Angular} }

// MarshalText encodes the scheme by name, so JSON maps keyed by Scheme
// and serialized job specs stay human-readable.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a scheme name produced by MarshalText.
func (s *Scheme) UnmarshalText(b []byte) error {
	switch string(b) {
	case "MR-Dim":
		*s = Dimensional
	case "MR-Grid":
		*s = Grid
	case "MR-Angle":
		*s = Angular
	case "MR-Random":
		*s = Random
	default:
		return fmt.Errorf("partition: unknown scheme %q", b)
	}
	return nil
}

// ParseScheme reads a scheme as the command-line tools spell it in their
// -method flag: angle, grid, dim or random.
func ParseScheme(flag string) (Scheme, error) {
	switch flag {
	case "angle":
		return Angular, nil
	case "grid":
		return Grid, nil
	case "dim":
		return Dimensional, nil
	case "random":
		return Random, nil
	default:
		return 0, fmt.Errorf("partition: unknown method %q (want angle, grid, dim or random)", flag)
	}
}

// Partitioner assigns points to partitions. Implementations are immutable
// after construction and safe for concurrent use.
type Partitioner interface {
	// Name identifies the partitioner for logs and experiment tables.
	Name() string
	// Partitions returns the total number of partitions; Assign results
	// are always in [0, Partitions()).
	Partitions() int
	// Assign returns the partition index for p. It returns an error only
	// for invalid points (wrong dimension, NaN/Inf).
	Assign(p points.Point) (int, error)
}

// Pruner is implemented by partitioners that can prove some partitions
// wholly dominated by others (MR-Grid's cell pruning). Pruned partitions
// need no local skyline computation.
type Pruner interface {
	// Prunable receives which partitions are occupied and returns, for
	// each partition index, whether it is provably dominated by some other
	// occupied partition.
	Prunable(occupied []bool) []bool
}

// New constructs a partitioner of the given scheme fitted to the dataset,
// targeting at least want partitions (the actual count may be slightly
// larger for grid-structured schemes, never smaller unless the scheme
// cannot express that many cells). The dataset must be non-empty and
// uniform-dimensional, and want at most MaxPartitions. It is Fit, then the
// plan's Build.
//
// New reads a sample of the data, not all of it (see Fit): it rejects an
// invalid row only if it draws it. The partitioners' Assign rejects every
// invalid row, so the job that routes the data by the partitioner is what
// validates it.
func New(scheme Scheme, data points.Set, want int) (Partitioner, error) {
	plan, err := Fit(scheme, data, want)
	if err != nil {
		return nil, err
	}
	return plan.Build()
}

// MaxPartitions caps the partitions a plan may describe — its requested
// count, and the product of its angular splits — and the partition count a
// snapshot header may declare: far above any real plan (the paper's rule is
// 2 × nodes) and small enough that the per-partition tables sized from it
// stay harmless.
const MaxPartitions = 1 << 20

// Plan is a fitted partitioner's whole description, and the one thing the
// in-process and cluster executors share of it: Fit writes it, a cluster
// ships it to its workers as JSON, and Build — the only code that checks a
// plan and constructs a partitioner — turns it into the same partitioner
// wherever it runs.
type Plan struct {
	Scheme Scheme `json:"scheme"`
	// Min and Max are the box the plan was fitted to: the fit sample's, or
	// every row's under MR-Grid. MR-Angle's origin is Min. Their length is
	// the points' dimension.
	Min points.Point `json:"min"`
	Max points.Point `json:"max"`
	// Partitions is the requested count; MR-Grid and MR-Angle round it up
	// to their split product.
	Partitions int `json:"partitions"`
	// AngularSplits and AngularCuts are MR-Angle's sectors, nil for the
	// other schemes: the split count of each of the d−1 angles, and for
	// angle i one sorted list of AngularSplits[i]−1 cuts in [0, π/2] per
	// partial cell alive after splitting angles 0..i−1 (nil where
	// AngularSplits[i] is 1).
	AngularSplits []int         `json:"angular_splits,omitempty"`
	AngularCuts   [][][]float64 `json:"angular_cuts,omitempty"`
}

// Fit writes the plan New builds, for the scheme over the dataset. The fit
// reads max(fitSampleRows, 64·want) rows drawn deterministically
// (sampleIndices, seed 1), or every row of a set no larger than that: it
// validates those rows, takes their bounding box, and fits to it. Quantile
// cuts from a few thousand points match the full-data cuts to well under a
// sector width, and a row outside the sample's box is clamped into a
// boundary partition, as an unseen point is. MR-Grid is the one scheme that
// reads every row: its cell pruning proves dominance from cell corners,
// which must bound every point, so its fit is one validate-and-bounds pass
// over the set on GOMAXPROCS goroutines (points.Set.ValidateBoundsOn).
func Fit(scheme Scheme, data points.Set, want int) (Plan, error) {
	var (
		sample   points.Set
		min, max points.Point
		err      error
	)
	if scheme == Grid {
		min, max, err = data.ValidateBoundsOn(0)
	} else {
		sample, min, max, err = drawSample(data, fitSampleRows, want, fitSeed)
	}
	if err != nil {
		return Plan{}, fmt.Errorf("partition: %w", err)
	}
	return fitPlan(scheme, sample, min, max, want)
}

// fitPlan is the plan of scheme fitted to sample, validated rows whose box
// is [min, max]: MR-Angle's sectors are recursive equi-depth cuts of the
// sample's angles (fitCuts), and the other schemes need nothing but the box.
// The plan is checked before the cuts are fitted, so a plan no Build takes
// is never fitted.
func fitPlan(scheme Scheme, sample points.Set, min, max points.Point, want int) (Plan, error) {
	plan := Plan{Scheme: scheme, Min: min, Max: max, Partitions: want}
	if err := plan.check(); err != nil {
		return Plan{}, err
	}
	if scheme == Angular {
		plan.AngularSplits = splitCounts(len(min)-1, want)
		cuts, err := fitCuts(sample, min, plan.AngularSplits)
		if err != nil {
			return Plan{}, err
		}
		plan.AngularCuts = cuts
	}
	return plan, nil
}

// Build checks the plan and constructs its partitioner. A plan arrives over
// the wire on a cluster's workers, so every value a partitioner would trust —
// the scheme it switches on, the counts it sizes tables by, the bounds it
// divides by, the cuts it searches — is checked here, and a bad plan is an
// error, never a panic. The partitioner shares the plan's cuts.
func (p Plan) Build() (Partitioner, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	d := len(p.Min)
	switch p.Scheme {
	case Dimensional:
		return &DimensionalPartitioner{lo: p.Min[0], hi: p.Max[0], n: p.Partitions, d: d}, nil
	case Grid:
		splits := splitCounts(d, p.Partitions)
		return &GridPartitioner{min: p.Min.Clone(), max: p.Max.Clone(), splits: splits, n: product(splits)}, nil
	case Angular:
		return newAngular(p.Min, p.AngularSplits, p.AngularCuts)
	default:
		return &RandomPartitioner{n: p.Partitions, d: d}, nil
	}
}

// check is Build's check of everything but MR-Angle's sectors, which
// newAngular checks: a known scheme, a finite non-empty box, a partition
// count in [1, MaxPartitions], and sectors only on an angular plan.
func (p Plan) check() error {
	d := len(p.Min)
	switch {
	case p.Scheme < Dimensional || p.Scheme > Random:
		return fmt.Errorf("partition: unknown scheme %d", int(p.Scheme))
	case d < 1 || len(p.Max) != d:
		return fmt.Errorf("partition: plan box has %d-dim min and %d-dim max, want one dimension >= 1", d, len(p.Max))
	case p.Partitions < 1 || p.Partitions > MaxPartitions:
		return fmt.Errorf("partition: %d partitions, need 1..%d", p.Partitions, MaxPartitions)
	case p.Scheme == Angular && d < 2:
		return fmt.Errorf("partition: angular scheme needs dimension >= 2, got %d", d)
	case p.Scheme != Angular && (p.AngularSplits != nil || p.AngularCuts != nil):
		return fmt.Errorf("partition: %v plan with angular sectors", p.Scheme)
	}
	for i, lo := range p.Min {
		if hi := p.Max[i]; math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) || lo > hi {
			return fmt.Errorf("partition: plan bounds [%g, %g] in dimension %d", lo, hi, i)
		}
	}
	return nil
}

// fitSampleRows is the fewest rows Fit reads: sets at or below
// max(fitSampleRows, 64·want) rows are fitted exactly. fitSeed seeds the
// draw of a larger set's sample.
const (
	fitSampleRows = 4096
	fitSeed       = 1
)

// FitRows returns the rows of an n-row set that Fit reads, in the order it
// reads them: every row, in order, under MR-Grid, whose fit bounds every
// row, or of a set of at most max(fitSampleRows, 64·want) rows; else that
// many rows drawn by sampleIndices from fitSeed. New over just these rows,
// in this order, is New over the set — the same box, offset, cuts and
// assignments — so a caller that streams its data keeps these rows alone.
func FitRows(scheme Scheme, n, want int) []int {
	if size := max(fitSampleRows, 64*want); scheme != Grid && n > size {
		return sampleIndices(rand.New(rand.NewSource(fitSeed)), n, size)
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// drawSample returns the rows a fit reads and their bounding box: every row
// of data when there are at most max(size, 64·want), else that many drawn by
// sampleIndices from seed, in draw order. Only those rows (and row 0, which
// fixes the dimension) are validated.
func drawSample(data points.Set, size, want int, seed int64) (sample points.Set, lo, hi points.Point, err error) {
	size = max(size, 64*want)
	if len(data) <= size {
		lo, hi, err = data.ValidateBounds()
		return data, lo, hi, err
	}
	idx := sampleIndices(rand.New(rand.NewSource(seed)), len(data), size)
	if lo, hi, err = data.ValidateBoundsOf(idx); err != nil {
		return nil, nil, nil, err
	}
	sample = make(points.Set, size)
	for i, j := range idx {
		sample[i] = data[j]
	}
	return sample, lo, hi, nil
}

// splitCounts factors a target partition count into per-axis split counts
// over m axes, as evenly as possible: starting from all ones, it repeatedly
// doubles the axis with the fewest splits until the product reaches the
// target. The product is the smallest power-of-two-ish value ≥ want
// reachable this way, which keeps cells close to cubical — the behaviour
// the paper's figures assume (e.g. 4 partitions in 2-D = 2×2).
func splitCounts(m, want int) []int {
	splits := make([]int, m)
	for i := range splits {
		splits[i] = 1
	}
	product := 1
	for product < want {
		// Double the axis with the smallest split count (ties: lowest
		// index), keeping the grid as balanced as possible.
		best := 0
		for i := 1; i < m; i++ {
			if splits[i] < splits[best] {
				best = i
			}
		}
		product = product / splits[best] * (splits[best] * 2)
		splits[best] *= 2
	}
	return splits
}

func product(splits []int) int {
	p := 1
	for _, s := range splits {
		p *= s
	}
	return p
}

// bucket maps v in [lo, hi] to a bin in [0, n). Values outside the fitted
// range are clamped into the boundary bins so that a partitioner fitted on
// one dataset still accepts unseen points (e.g. a newly published service).
func bucket(v, lo, hi float64, n int) int {
	if n == 1 || hi <= lo {
		return 0
	}
	b := int(float64(n) * (v - lo) / (hi - lo))
	if b < 0 {
		return 0
	}
	if b >= n {
		return n - 1
	}
	return b
}

// ---------------------------------------------------------------------------
// Dimensional (MR-Dim)

// DimensionalPartitioner splits the first dimension into equal-width
// ranges: partition i covers [i·Vmax/Np, (i+1)·Vmax/Np) of it (paper
// §III-A).
type DimensionalPartitioner struct {
	lo, hi float64 // fitted value range in the first dimension
	n      int     // number of partitions
	d      int     // expected point dimensionality
}

// Name implements Partitioner.
func (p *DimensionalPartitioner) Name() string { return Dimensional.String() }

// Partitions implements Partitioner.
func (p *DimensionalPartitioner) Partitions() int { return p.n }

// Assign implements Partitioner.
func (p *DimensionalPartitioner) Assign(pt points.Point) (int, error) {
	if err := checkPoint(pt, p.d); err != nil {
		return 0, err
	}
	return bucket(pt[0], p.lo, p.hi, p.n), nil
}

// ---------------------------------------------------------------------------
// Grid (MR-Grid)

// GridPartitioner divides every dimension into equal ranges, forming a
// Cartesian grid of cells (paper §III-B). It supports cell-level dominance
// pruning: a cell whose min corner is weakly dominated by the max corner of
// another occupied cell contains only globally dominated points.
type GridPartitioner struct {
	min, max points.Point
	splits   []int
	n        int
}

// Name implements Partitioner.
func (g *GridPartitioner) Name() string { return Grid.String() }

// Partitions implements Partitioner.
func (g *GridPartitioner) Partitions() int { return g.n }

// Assign implements Partitioner.
func (g *GridPartitioner) Assign(pt points.Point) (int, error) {
	if err := checkPoint(pt, len(g.min)); err != nil {
		return 0, err
	}
	id := 0
	for i := range pt {
		b := bucket(pt[i], g.min[i], g.max[i], g.splits[i])
		id = id*g.splits[i] + b
	}
	return id, nil
}

// cellCorners returns the min and max corners of cell id.
func (g *GridPartitioner) cellCorners(id int) (lo, hi points.Point) {
	d := len(g.min)
	idx := make([]int, d)
	for i := d - 1; i >= 0; i-- {
		idx[i] = id % g.splits[i]
		id /= g.splits[i]
	}
	lo = make(points.Point, d)
	hi = make(points.Point, d)
	for i := 0; i < d; i++ {
		w := (g.max[i] - g.min[i]) / float64(g.splits[i])
		lo[i] = g.min[i] + float64(idx[i])*w
		hi[i] = g.min[i] + float64(idx[i]+1)*w
	}
	return lo, hi
}

// Prunable implements Pruner. Cell B is prunable when some other occupied
// cell A has maxCorner(A) ≤ minCorner(B) component-wise: every point of A
// then weakly dominates every point of B, and since binning is a function
// of coordinates, points in different cells are never coordinate-equal, so
// the dominance is strict (paper's "bottom-left dominates up-right").
func (g *GridPartitioner) Prunable(occupied []bool) []bool {
	pruned := make([]bool, g.n)
	if len(occupied) != g.n {
		return pruned
	}
	type corners struct{ lo, hi points.Point }
	occ := make([]int, 0, g.n)
	cs := make([]corners, g.n)
	for id := 0; id < g.n; id++ {
		if occupied[id] {
			lo, hi := g.cellCorners(id)
			cs[id] = corners{lo, hi}
			occ = append(occ, id)
		}
	}
	for _, b := range occ {
		for _, a := range occ {
			if a == b {
				continue
			}
			if points.DominatesOrEqual(cs[a].hi, cs[b].lo) {
				pruned[b] = true
				break
			}
		}
	}
	return pruned
}

// ---------------------------------------------------------------------------
// Angular (MR-Angle)

// AngularPartitioner implements the paper's new scheme: points are mapped
// to hyperspherical coordinates (Eq. 1) and the (d−1)-dimensional angular
// subspace [0, π/2]^(d−1) is gridded. Because angles depend only on the
// direction from the origin, each sector contains a full quality gradient
// from near-origin (high quality) to far (low quality) services, which is
// what balances local skyline sizes across partitions.
//
// Sector boundaries are recursive equi-depth cuts at data quantiles
// (fitCuts), not the equal-width sectors over [0, π/2] of the textbook
// reading of the paper: real QoS data concentrates in a narrow angular band
// in high dimensions, leaving most equal-width sectors empty. The fit splits
// angle φ1 at data quantiles, then splits each resulting slab on φ2 at that
// slab's own conditional quantiles, and so on (a kd-tree over the angle
// vector), so every sector holds an equal share of the data. In 2-D this
// degenerates to plain quantile sectors on the single angle, matching the
// paper's figure. A sector is a union of rays from the origin — the
// scheme's defining property.
//
// The transform requires non-negative coordinates; the partitioner is
// fitted with a translation offset that shifts the fitted rows' min corner
// to the origin, and Assign clamps a coordinate below it to zero.
// Translation preserves dominance, so the skyline is unaffected.
type AngularPartitioner struct {
	offset points.Point // subtracted from every point before the transform
	splits []int        // per-angle split counts, length d−1
	// cuts[i] holds, for every cell alive after splitting angles 0..i−1
	// (there are splits[0]·...·splits[i−1] of them, indexed by the partial
	// cell id), the splits[i]−1 increasing interior boundaries of angle i
	// within that cell; nil for an unsplit angle.
	cuts [][][]float64
	// levels are the angles Assign looks at: those split more than once, in
	// angle order. See setLevels.
	levels []splitLevel
	n      int
	d      int

	exactLookups atomic.Int64 // lookups that took the Atan2 path (test tally)
}

// splitLevel is one angle the partitioner splits on, as Assign walks it.
type splitLevel struct {
	axis int // the angle's index i: φi = atan2(‖shifted[i+1:]‖, shifted[i])
	k    int // its split count, > 1
	// tan2 holds tan²(cut) for every cut of the level, cell-major (cell id's
	// cuts are tan2[id·(k−1):][:k−1]); NaN for a cut Assign must decide on
	// the exact angle.
	tan2 []float64
	cuts [][]float64 // the level's cuts per partial cell, for the exact angle
}

// Name implements Partitioner.
func (a *AngularPartitioner) Name() string { return Angular.String() }

// Partitions implements Partitioner.
func (a *AngularPartitioner) Partitions() int { return a.n }

// maxLevels bounds the angles a partitioner splits on, since Assign keeps a
// fixed stack array of one (x, S²) pair per split angle. More split angles
// mean at least 2^21 sectors, past MaxPartitions, which Build refuses.
const maxLevels = 20

// levelPair is what Assign keeps of a row for one split angle φi: the
// shifted coordinate x = shifted[i] and S² = shifted[i+1]² + … + shifted[d−1]²,
// so that φi = atan2(S, x).
type levelPair struct{ x, s2 float64 }

// Assign implements Partitioner. This is the pipeline's per-point hot
// path (the mapper calls it for every input point), so it is one walk. A
// back-to-front pass over the row shifts and clamps it, validates it through
// the transform instead of up front, and keeps the (x, S²) pair of each
// split angle, nothing else (splitCounts leaves most axes at one split once
// want ≪ 2^(d−1); an unsplit angle contributes id·1+0 regardless of its
// value). Then the split angles are decided front to back in tangent space,
// without forming the angle: a one-cut cell is one comparison (tanCut),
// a longer cell tanBucket's, and only a comparison inside the guard band
// takes the exact angle. The ids are those of hyper.ToHyperspherical's
// angles searched among the cuts, bit for bit: x and S² are the very values
// the transform's running sum passes through, a decided comparison agrees
// with the exact one, and the exact one is Atan2(Sqrt(S²), x), as there.
func (a *AngularPartitioner) Assign(pt points.Point) (int, error) {
	if len(pt) != a.d {
		return 0, checkPoint(pt, a.d)
	}
	off := a.offset[:len(pt)]
	// The pass sums squares back to front: the running sum whose square
	// root hyper.ToHyperspherical takes, so the fitted cuts and this lookup
	// agree bit for bit on the boundary tie rule. NaN and +Inf coordinates
	// survive the shift and poison the sum, and −Inf (which the clamp would
	// otherwise erase) is flagged where it appears; only a poisoned row pays
	// for Validate's error message.
	var at [maxLevels]levelPair
	j := len(a.levels) - 1
	next := -1 // level j's axis: where the pass keeps its pair
	if j >= 0 {
		next = a.levels[j].axis
	}
	bad, s := false, 0.0
	for i := len(pt) - 1; i >= 0; i-- {
		v := pt[i] - off[i]
		if v < 0 {
			if math.IsInf(v, -1) {
				bad = true
			}
			v = 0 // clamp unseen below-range values; preserves sector order
		}
		if i == next {
			at[j] = levelPair{v, s}
			if j--; j >= 0 {
				next = a.levels[j].axis
			}
		}
		s += v * v
	}
	if bad || !(s <= math.MaxFloat64) { // NaN or +Inf radius
		if err := pt.Validate(); err != nil {
			return 0, err
		}
		// Finite input whose squares overflow: keep going — the +Inf sum
		// yields π/2 angles, still clamped into boundary sectors.
	}
	id := 0
	for j := range a.levels {
		l := &a.levels[j]
		x, s2 := at[j].x, at[j].s2
		var b int
		if l.k == 2 {
			b = tanCut(s2, x*x*l.tan2[id])
		} else {
			n := l.k - 1
			b = tanBucket(l.tan2[id*n:id*n+n], s2, x*x)
		}
		if b < 0 {
			a.exactLookups.Add(1)
			b = cutBucket(l.cuts[id], math.Atan2(math.Sqrt(s2), x))
		}
		id = id*l.k + b
	}
	return id, nil
}

// cutBucket returns the bucket of v among sorted cuts: the number of cuts
// at or below it, so a value exactly on a cut goes to the upper bucket of
// the half-open intervals. The fit distributes its sample with it, Assign
// falls back to it, and the radial shells use it too.
func cutBucket(cuts []float64, v float64) int {
	b := sort.SearchFloat64s(cuts, v) // first cut >= v
	for b < len(cuts) && cuts[b] == v {
		b++
	}
	return b
}

// The sector lookup in tangent space. φ = atan2(S, x) with S, x ≥ 0 lies
// in [0, π/2], where tan is monotone, so φ ≥ cut ⇔ S² ≥ x²·tan²(cut): the
// comparison needs neither the Sqrt nor the Atan2, which were two thirds
// of a job's samples on inputs whose skyline is small. The two sides carry
// a few ulps of rounding each; the angle the exact lookup compares carries
// Atan2's ulp, which tan amplifies by up to 1/cos² near π/2. A comparison
// is therefore trusted only when the sides differ by more than tanBand of
// their sum (plus tanFloor, which covers squares that underflowed), and
// only for cuts at least tanEdge inside (0, π/2): there a decided
// comparison means the true angle is ≥ 1e-14 away from the cut, against a
// 4e-16 rounding of the computed one (and near 0 both shrink together).
// Everything else — a side within the band, which includes every sample
// point that defines a cut and its duplicates; a NaN or infinite side
// (overflowed squares); a cut at 0, at π/2 or within tanEdge of them,
// stored as NaN — is undecided, and Assign takes the exact angle for that
// lookup: under 0.1% of lookups on independent data, which
// TestAssignFallbackIsRare pins.
const (
	tanBand  = 1e-9
	tanFloor = 1e-300
	tanEdge  = 1e-5
	// tanLinear is the run of cuts tanBucket counts through without
	// branching on the outcome; a longer cell is first halved down to it.
	// The bucket branches are coin flips by construction (equi-depth cuts),
	// so a counted run mispredicts nothing. BenchmarkAssign on a shared
	// 2-vCPU Xeon: ind6 at 8 / 64 partitions, 44–64 / 84–120 ns per point
	// (86–104 / 124–139 ns before Assign became one walk; at 8 partitions
	// every level is a one-cut cell, which never reaches tanBucket); ind2 at
	// 256 partitions, one 255-cut cell, 95–125 ns at a run of 0 (pure
	// halving), 7 or 15 alike.
	tanLinear = 7
)

// tanCut is tanBucket for a one-cut cell, with rhs = x²·tan²(cut): 1 when
// the angle is decided at or above the cut, 0 below it, −1 undecided. Both
// outcomes are selects, not branches.
func tanCut(s2, rhs float64) int {
	diff, band := s2-rhs, tanBand*(s2+rhs)+tanFloor
	ge, lt := 0, 0
	if diff > band {
		ge = 1
	}
	if diff < -band {
		lt = 1
	}
	if ge+lt == 0 { // inside the band, or NaN
		return -1
	}
	return ge
}

// tanBucket is cutBucket for the angle whose squared tangent is s2/x2,
// over the cell's tan²(cut) table; −1 when some comparison it needed was
// undecided. Decided comparisons agree with the exact ones, which are
// monotone over the sorted cuts, so the halving and the count are sound.
func tanBucket(tan2 []float64, s2, x2 float64) int {
	lo, hi := 0, len(tan2)
	for hi-lo > tanLinear {
		m := int(uint(lo+hi) >> 1)
		rhs := x2 * tan2[m]
		diff, band := s2-rhs, tanBand*(s2+rhs)+tanFloor
		switch {
		case diff > band:
			lo = m + 1
		case diff < -band:
			hi = m
		default:
			return -1
		}
	}
	ge, lt := 0, 0
	for _, t := range tan2[lo:hi] {
		rhs := x2 * t
		diff, band := s2-rhs, tanBand*(s2+rhs)+tanFloor
		if diff > band {
			ge++
		}
		if diff < -band {
			lt++
		}
	}
	if ge+lt != hi-lo {
		return -1
	}
	return lo + ge
}

// newAngular is Build's MR-Angle partitioner: the origin offset, the split
// count of each of the d−1 angles, and the cuts of every partial cell of
// every split angle, checked here since they may have crossed a wire.
func newAngular(offset points.Point, splits []int, cuts [][][]float64) (*AngularPartitioner, error) {
	d := len(offset)
	if len(splits) != d-1 || len(cuts) != d-1 {
		return nil, fmt.Errorf("partition: %d angular splits and %d cut levels for %d-dim points, want %d of each", len(splits), len(cuts), d, d-1)
	}
	cells := 1 // partial cells alive before angle i
	for i, k := range splits {
		if k < 1 || k > MaxPartitions/cells {
			return nil, fmt.Errorf("partition: angular splits %v, want each >= 1 and at most %d partitions", splits, MaxPartitions)
		}
		if k == 1 && cuts[i] == nil {
			continue
		}
		if len(cuts[i]) != cells {
			return nil, fmt.Errorf("partition: angle %d has cuts for %d cells, want %d", i, len(cuts[i]), cells)
		}
		for j, c := range cuts[i] {
			if len(c) != k-1 {
				return nil, fmt.Errorf("partition: angle %d cell %d has %d cuts, want %d", i, j, len(c), k-1)
			}
			for q, v := range c {
				if !(v >= 0 && v <= hyper.MaxAngle) { // NaN included
					return nil, fmt.Errorf("partition: angle %d cell %d cut %g outside [0, π/2]", i, j, v)
				}
				if q > 0 && v < c[q-1] {
					return nil, fmt.Errorf("partition: angle %d cell %d cuts not sorted", i, j)
				}
			}
		}
		cells *= k
	}
	a := &AngularPartitioner{offset: offset.Clone(), splits: splits, cuts: cuts, n: cells, d: d}
	a.setLevels()
	return a, nil
}

// setLevels builds the table Assign walks: one splitLevel per angle split
// more than once, with its tan² table. It runs at construction, so the hot
// path never computes a tangent nor looks at an unsplit angle.
func (a *AngularPartitioner) setLevels() {
	for i, k := range a.splits {
		if k <= 1 {
			continue
		}
		l := splitLevel{axis: i, k: k, cuts: a.cuts[i], tan2: make([]float64, 0, len(a.cuts[i])*(k-1))}
		for _, cell := range l.cuts {
			for _, c := range cell {
				t := math.NaN()
				if c >= tanEdge && c <= hyper.MaxAngle-tanEdge {
					t = math.Tan(c)
					t *= t
				}
				l.tan2 = append(l.tan2, t)
			}
		}
		a.levels = append(a.levels, l)
	}
}

// fitCuts fits MR-Angle's recursive equi-depth cuts to sample, validated
// rows shifted by min, their coordinate-wise minimum, for the given split
// counts: angle φ1 is cut at the rows' quantiles, then each resulting slab is
// cut on φ2 at the slab's own conditional quantiles, and so on, so every
// final sector carries (up to ties) the same number of rows. Heavily-tied
// data may still leave some sectors light — correct, merely less balanced.
func fitCuts(sample points.Set, min points.Point, splits []int) ([][][]float64, error) {
	d := len(min)
	// Compute every row's angle vector once, into one slab: row k's angle i
	// is angles[k*na+i].
	na := d - 1
	angles := make([]float64, len(sample)*na)
	shifted := make(points.Point, d)
	for k, pt := range sample {
		for i := range pt {
			shifted[i] = pt[i] - min[i]
		}
		if _, err := hyper.AnglesInto(angles[k*na:(k+1)*na], shifted); err != nil {
			return nil, err
		}
	}
	// Recursively split: cells[j] holds the indices of rows currently in
	// partial cell j; each level refines every cell on the next angle.
	cells := [][]int{make([]int, len(sample))}
	for k := range sample {
		cells[0][k] = k
	}
	cuts := make([][][]float64, na)
	for i, k := range splits {
		if k <= 1 {
			// No split on this angle: cells carry over unchanged.
			continue
		}
		level := make([][]float64, len(cells))
		next := make([][]int, 0, len(cells)*k)
		for j, members := range cells {
			vals := make([]float64, len(members))
			for m, idx := range members {
				vals[m] = angles[idx*na+i]
			}
			sort.Float64s(vals)
			c := make([]float64, k-1)
			for q := 1; q < k; q++ {
				if len(vals) == 0 {
					c[q-1] = 0
					continue
				}
				idx := q * len(vals) / k
				if idx >= len(vals) {
					idx = len(vals) - 1
				}
				c[q-1] = vals[idx]
			}
			level[j] = c
			// Distribute members into the k children by Assign's rule.
			children := make([][]int, k)
			for _, idx := range members {
				b := cutBucket(c, angles[idx*na+i])
				children[b] = append(children[b], idx)
			}
			next = append(next, children...)
		}
		cuts[i] = level
		cells = next
	}
	return cuts, nil
}

// sampleIndices draws k distinct indices of [0, n) uniformly: the first k
// steps of a Fisher–Yates shuffle, with the few slots the steps displaced
// kept in a map instead of an n-long permutation, so a draw costs O(k)
// however large the input.
func sampleIndices(rng *rand.Rand, n, k int) []int {
	displaced := make(map[int]int, k)
	at := func(i int) int {
		if v, ok := displaced[i]; ok {
			return v
		}
		return i
	}
	out := make([]int, k)
	for i := range out {
		j := i + rng.Intn(n-i)
		out[i] = at(j)
		displaced[j] = at(i)
	}
	return out
}

// ---------------------------------------------------------------------------
// Random baseline

// RandomPartitioner assigns points to partitions by an FNV hash of their
// coordinates: deterministic, uniform in expectation, but with no spatial
// structure — the control case for partitioning ablations.
type RandomPartitioner struct {
	n int
	d int
}

// Name implements Partitioner.
func (r *RandomPartitioner) Name() string { return Random.String() }

// Partitions implements Partitioner.
func (r *RandomPartitioner) Partitions() int { return r.n }

// Assign implements Partitioner.
func (r *RandomPartitioner) Assign(pt points.Point) (int, error) {
	if err := checkPoint(pt, r.d); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range pt {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return int(h.Sum64() % uint64(r.n)), nil
}

func checkPoint(pt points.Point, d int) error {
	if err := pt.Validate(); err != nil {
		return err
	}
	if len(pt) != d {
		return fmt.Errorf("partition: point has dimension %d, want %d", len(pt), d)
	}
	return nil
}

// Histogram assigns every point of the set and returns per-partition
// counts. It is the load-balance diagnostic used in tests and experiments.
func Histogram(p Partitioner, s points.Set) ([]int, error) {
	counts := make([]int, p.Partitions())
	for _, pt := range s {
		id, err := p.Assign(pt)
		if err != nil {
			return nil, err
		}
		counts[id]++
	}
	return counts, nil
}

// ImbalanceRatio summarizes a histogram as max/mean over non-empty-capable
// slots; 1.0 is perfectly balanced. An all-zero histogram returns 0.
func ImbalanceRatio(counts []int) float64 {
	total, max := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 || len(counts) == 0 {
		return 0
	}
	mean := float64(total) / float64(len(counts))
	return float64(max) / mean
}
