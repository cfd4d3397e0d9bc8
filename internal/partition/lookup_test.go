package partition

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hyper"
	"repro/internal/points"
	"repro/internal/qws"
)

// referenceAssign is the lookup Assign replaced, kept as the reference of
// the parity tests: Sqrt of every suffix sum, Atan2 per split angle, and a
// SearchFloat64s among the cell's cuts with the upper-bucket tie rule.
func referenceAssign(a *AngularPartitioner, pt points.Point) (int, error) {
	if len(pt) != a.d {
		return 0, checkPoint(pt, a.d)
	}
	shifted, suffix := make([]float64, a.d), make([]float64, a.d+1)
	bad := false
	for i := range pt {
		v := pt[i] - a.offset[i]
		if v < 0 {
			if math.IsInf(v, -1) {
				bad = true
			}
			v = 0
		}
		shifted[i] = v
	}
	s := 0.0
	for i := a.d - 1; i >= 0; i-- {
		s += shifted[i] * shifted[i]
		suffix[i] = math.Sqrt(s)
	}
	if bad || !(suffix[0] <= math.MaxFloat64) {
		if err := pt.Validate(); err != nil {
			return 0, err
		}
	}
	id := 0
	for i := 0; i < a.d-1; i++ {
		k := a.splits[i]
		if k <= 1 {
			continue
		}
		ang := math.Atan2(suffix[i+1], shifted[i])
		cell := a.cuts[i][id]
		b := sort.SearchFloat64s(cell, ang)
		for b < len(cell) && cell[b] == ang {
			b++
		}
		id = id*k + b
	}
	return id, nil
}

// requireParity asserts Assign and the reference agree on pt: same id, or
// the same error text.
func requireParity(t *testing.T, a *AngularPartitioner, pt points.Point) {
	t.Helper()
	want, wantErr := referenceAssign(a, pt)
	got, err := a.Assign(pt)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("Assign(%v): error %v, reference %v", pt, err, wantErr)
	}
	if got != want {
		t.Fatalf("Assign(%v) = %d, reference %d (splits %v)", pt, got, want, a.splits)
	}
}

// hostilePoints are the coordinates the tangent-space test cannot be
// trusted on, placed relative to the fitted origin: the origin itself,
// points on every axis and in every coordinate hyperplane, ratios S/x
// around Atan2's resolution at π/2, subnormal and overflowing squares,
// coordinates below the offset (the clamp), and invalid input.
func hostilePoints(rng *rand.Rand, offset points.Point) []points.Point {
	d := len(offset)
	at := func(rel ...float64) points.Point {
		p := make(points.Point, d)
		for i := range p {
			p[i] = offset[i] + rel[i%len(rel)]
		}
		return p
	}
	out := []points.Point{
		at(0), at(1), at(-5), at(1, -3), at(-3, 1),
		at(5e-324), at(1e-170), at(1e-170, 1), at(1, 1e-170), at(1e-160, 1e-150),
		at(1e154), at(1e160), at(1e154, 1), at(1, 1e154), at(1e300, 1e-300),
		at(-1e154, 1e154), at(math.MaxFloat64), at(1e-310, 1e-320),
	}
	for _, ratio := range []float64{1e-17, 1e-16, 1e-15, 1e-9, 1e-6, 1e-5, 1e5, 1e6, 1e9, 1e15, 3e15, 1e16, 3e16, 1e17} {
		out = append(out, at(1, ratio), at(ratio, 1), at(7, 7*ratio, 0))
	}
	for i := 0; i < d; i++ {
		axis := at(0)
		axis[i] = offset[i] + 1 + rng.Float64()
		plane := at(1 + rng.Float64())
		plane[i] = offset[i]
		out = append(out, axis, plane)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := at(1)
		p[rng.Intn(d)] = v
		out = append(out, p)
		// The same with a clamped coordinate in the row, on either side of
		// the bad one in the back-to-front walk.
		for _, ends := range [][2]int{{0, d - 1}, {d - 1, 0}} {
			p := at(1)
			p[ends[0]], p[ends[1]] = offset[ends[0]]-5, v
			out = append(out, p)
		}
	}
	return append(out, at(1)[:d-1], append(at(1), 1))
}

// TestAssignMatchesAngleReference: the tangent-space lookup returns the id
// of the angle lookup for every point of the fitted data (so for every
// sample point that defines a cut), for exact duplicates of them, for the
// hostile coordinates above, in every dimension up to 20, for one-cut cells,
// many cuts per cell (d = 2 at 256 partitions: one 255-cut cell, halved
// before it is counted) and both in one partitioner (d = 6 at 64: a 3-cut
// level, then four one-cut levels), and for partitioners rebuilt from their
// plans.
func TestAssignMatchesAngleReference(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	shapes := map[[2]int][]int{{2, 256}: {256}, {6, 64}: {4, 2, 2, 2, 2}}
	for _, d := range []int{2, 6, 10, 17, 18, 19, 20} {
		for _, want := range []int{8, 64, 256} {
			inputs := map[string]points.Set{
				"independent": dataset.Independent(int64(d), 3000, d),
				"correlated":  dataset.Correlated(int64(d), 3000, d),
				"ties":        tiedSet(rng, 3000, d),
			}
			if d <= qws.MaxDim {
				inputs["qws"] = qws.Dataset(int64(d), 3000, d)
			}
			for name, data := range inputs {
				exact, plan, err := fitExact(data, want)
				if err != nil {
					t.Fatal(err)
				}
				if shape, ok := shapes[[2]int{d, want}]; ok && !slices.Equal(plan.AngularSplits, shape) {
					t.Fatalf("d=%d want=%d: splits %v, want %v", d, want, plan.AngularSplits, shape)
				}
				rebuilt := mustBuild(t, plan).(*AngularPartitioner)
				radial, err := FitAngularRadial(data, want, 2)
				if err != nil {
					t.Fatal(err)
				}
				sampled, err := fitSampled(data, want, 64*want, 3)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range []*AngularPartitioner{exact, rebuilt, radial.angular, sampled} {
					for _, pt := range data {
						requireParity(t, a, pt)
						requireParity(t, a, pt.Clone())
					}
					for _, pt := range hostilePoints(rng, a.offset) {
						requireParity(t, a, pt)
					}
				}
				if exact.exactLookups.Load() == 0 {
					t.Fatalf("d=%d want=%d %s: no lookup took the exact path, yet every cut is a data point's angle", d, want, name)
				}
			}
		}
	}
}

// cutHits reports, per split level of a, whether pt's angle at that level
// lies exactly on one of its cell's cuts: the comparisons no guard band can
// decide. It walks the cells as referenceAssign does.
func cutHits(a *AngularPartitioner, pt points.Point) []bool {
	shifted := make(points.Point, len(pt))
	for i := range pt {
		shifted[i] = max(pt[i]-a.offset[i], 0)
	}
	angles, err := hyper.AnglesOf(shifted)
	if err != nil {
		panic(err)
	}
	var hits []bool
	id := 0
	for i, k := range a.splits {
		if k <= 1 {
			continue
		}
		cell := a.cuts[i][id]
		hits = append(hits, slices.Contains(cell, angles[i]))
		id = id*k + cutBucket(cell, angles[i])
	}
	return hits
}

// TestAssignOneUndecidedLevel: a row whose middle level is undecided and
// whose levels before and after it are decided takes the exact angle at that
// level alone and keeps the ids the walk decided around it. Two ways to get
// such a row: a sample point that defines a cut of level 2 only, and a NaN
// tan² entry at a single level (every entry of the level, or just its first
// cell's first).
func TestAssignOneUndecidedLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	data := dataset.Independent(144, 3000, 6)
	a, plan, err := fitExact(data, 64)
	if err != nil {
		t.Fatal(err)
	}
	middle := 0
	for _, pt := range data {
		hits := cutHits(a, pt)
		if !slices.Equal(hits, []bool{false, false, true, false, false}) {
			continue
		}
		before := a.exactLookups.Load()
		requireParity(t, a, pt)
		if took := a.exactLookups.Load() - before; took != 1 {
			t.Fatalf("%v defines a cut of level 2 only, yet took the exact path %d times", pt, took)
		}
		middle++
	}
	if middle == 0 {
		t.Fatal("no sample point defines a cut of level 2 alone")
	}
	for j := range a.levels {
		for _, whole := range []bool{true, false} {
			b := mustBuild(t, plan).(*AngularPartitioner)
			if tan2 := b.levels[j].tan2; whole {
				for c := range tan2 {
					tan2[c] = math.NaN()
				}
			} else {
				tan2[0] = math.NaN()
			}
			for _, pt := range data {
				requireParity(t, b, pt)
			}
			for _, pt := range hostilePoints(rng, b.offset) {
				requireParity(t, b, pt)
			}
			if whole && b.exactLookups.Load() < int64(len(data)) {
				t.Fatalf("level %d all NaN: %d exact lookups over %d rows", j, b.exactLookups.Load(), len(data))
			}
		}
	}
}

// TestAssignAllocatesNothing: the walk keeps what it needs of a row on the
// stack, in every dimension, including rows that take the exact angle.
func TestAssignAllocatesNothing(t *testing.T) {
	for _, d := range []int{2, 6, 16, 17, 20} {
		for _, want := range []int{8, 64} {
			data := dataset.Independent(int64(d), 2000, d) // fitted whole: its cut points take the exact path
			a, err := New(Angular, data, want)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				for _, pt := range data {
					if _, err := a.Assign(pt); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("d=%d want=%d: %v allocations per %d rows, want 0", d, want, allocs, len(data))
			}
			if a.(*AngularPartitioner).exactLookups.Load() == 0 {
				t.Errorf("d=%d want=%d: no row took the exact path", d, want)
			}
		}
	}
}

// tiedSet draws points from a small integer grid: most angles repeat, so
// most cuts are shared by many points.
func tiedSet(rng *rand.Rand, n, d int) points.Set {
	s := make(points.Set, n)
	for i := range s {
		s[i] = make(points.Point, d)
		for j := range s[i] {
			s[i][j] = float64(rng.Intn(5))
		}
	}
	return s
}

// TestAssignHandMadeCuts puts cuts where tan is useless — exactly 0 and
// π/2 and within 1e-9 of them — and just inside the trusted range.
func TestAssignHandMadeCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	h := hyper.MaxAngle
	cuts := []float64{0, 0, 5e-324, 1e-300, 1e-9, tanEdge / 2, tanEdge, 0.3, math.Pi / 4, 1.2,
		h - tanEdge, h - tanEdge/2, h - 1e-9, math.Nextafter(h, 0), h, h}
	for _, d := range []int{2, 3} {
		splits := make([]int, d-1)
		level := make([][][]float64, d-1)
		cells := 1
		for i := range splits {
			splits[i] = len(cuts) + 1
			for j := 0; j < cells; j++ {
				level[i] = append(level[i], cuts)
			}
			cells *= splits[i]
		}
		a := mustBuild(t, angularPlan(d, splits, level)).(*AngularPartitioner)
		for _, pt := range hostilePoints(rng, a.offset) {
			requireParity(t, a, pt)
		}
		for _, c := range cuts { // points on and beside every cut
			for _, ang := range []float64{math.Nextafter(c, -1), c, math.Nextafter(c, 2)} {
				for _, r := range []float64{1e-3, 1, 977} {
					pt := make(points.Point, d)
					pt[0], pt[1] = r*math.Cos(ang), r*math.Sin(ang)
					requireParity(t, a, pt)
				}
			}
		}
	}
}

// TestAssignFallbackIsRare pins the width of the guard band from the other
// side: on independent data fewer than one lookup in a thousand may need
// the exact angle, or the band has silently given the gain back.
func TestAssignFallbackIsRare(t *testing.T) {
	data := dataset.Independent(143, 200000, 6)
	for _, want := range []int{8, 64} {
		p, err := New(Angular, data, want)
		if err != nil {
			t.Fatal(err)
		}
		a := p.(*AngularPartitioner)
		perPoint := 0
		for _, k := range a.splits {
			if k > 1 {
				perPoint++
			}
		}
		for _, pt := range data {
			if _, err := a.Assign(pt); err != nil {
				t.Fatal(err)
			}
		}
		exact, lookups := a.exactLookups.Load(), int64(perPoint*len(data))
		if exact*1000 >= lookups {
			t.Errorf("%d partitions: %d of %d lookups took the exact path, want < 0.1%%", want, exact, lookups)
		}
	}
}

// TestSampleIndices: the draw is k distinct in-range indices, a function
// of the seed alone.
func TestSampleIndices(t *testing.T) {
	for _, c := range []struct{ n, k int }{{10, 10}, {10, 1}, {4097, 4096}, {1 << 20, 4096}} {
		got := sampleIndices(rand.New(rand.NewSource(7)), c.n, c.k)
		if !slices.Equal(got, sampleIndices(rand.New(rand.NewSource(7)), c.n, c.k)) {
			t.Fatalf("n=%d k=%d: equal seeds drew different samples", c.n, c.k)
		}
		if slices.Equal(got, sampleIndices(rand.New(rand.NewSource(8)), c.n, c.k)) && c.k < c.n {
			t.Errorf("n=%d k=%d: seeds 7 and 8 drew the same sample", c.n, c.k)
		}
		if len(got) != c.k {
			t.Fatalf("n=%d: drew %d indices, want %d", c.n, len(got), c.k)
		}
		seen := map[int]bool{}
		for _, idx := range got {
			if idx < 0 || idx >= c.n || seen[idx] {
				t.Fatalf("n=%d k=%d: index %d out of range or drawn twice", c.n, c.k, idx)
			}
			seen[idx] = true
		}
	}
}

// FuzzAssignMatchesAngleReference drives the parity with fuzz-chosen data
// geometry, partition count and query coordinates.
func FuzzAssignMatchesAngleReference(f *testing.F) {
	f.Add(int64(1), 6, 8, 0, 1.0, 1e16, 0.0)
	f.Add(int64(2), 2, 256, 1, 5e-324, 1e154, -3.0)
	f.Add(int64(3), 17, 64, 2, 1e-170, 1.0, 1e-9)
	f.Add(int64(4), 10, 8, 3, math.Inf(1), 2.0, math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, d, want, kind int, x, y, z float64) {
		if d < 2 || d > 20 || want < 1 || want > 300 || kind < 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		var data points.Set
		switch kind % 4 {
		case 0:
			data = dataset.Independent(seed, 400, d)
		case 1:
			data = tiedSet(rng, 400, d)
		case 2:
			data = dataset.Anticorrelated(seed, 400, d)
		default: // hugging one axis: cuts near 0 and π/2
			data = dataset.Independent(seed, 400, d)
			for _, p := range data {
				for j := 1; j < d; j++ {
					p[j] *= math.Pow(10, -float64(rng.Intn(18)))
				}
			}
		}
		a, err := fitSampled(data, want, 64+rng.Intn(400), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range data {
			requireParity(t, a, pt)
		}
		for _, pt := range hostilePoints(rng, a.offset) {
			requireParity(t, a, pt)
		}
		q := make(points.Point, d)
		for i := range q {
			q[i] = a.offset[i] + []float64{x, y, z}[(i+rng.Intn(3))%3]
		}
		requireParity(t, a, q)
	})
}
