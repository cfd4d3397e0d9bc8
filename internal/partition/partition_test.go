package partition

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/points"
	"repro/internal/qws"
)

func uniformSet(seed int64, n, d int) points.Set {
	rng := rand.New(rand.NewSource(seed))
	s := make(points.Set, n)
	for i := range s {
		p := make(points.Point, d)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		s[i] = p
	}
	return s
}

func TestSchemeString(t *testing.T) {
	if Dimensional.String() != "MR-Dim" || Grid.String() != "MR-Grid" ||
		Angular.String() != "MR-Angle" || Random.String() != "MR-Random" {
		t.Error("unexpected scheme names")
	}
	if Scheme(42).String() != "Unknown" {
		t.Error("unknown scheme name")
	}
	if len(Schemes()) != 3 {
		t.Error("Schemes() must list the paper's three methods")
	}
}

// TestParseScheme: the -method spelling every command shares, and an error
// for anything else that names the valid values.
func TestParseScheme(t *testing.T) {
	for _, tt := range []struct {
		flag string
		want Scheme
		ok   bool
	}{
		{"angle", Angular, true},
		{"grid", Grid, true},
		{"dim", Dimensional, true},
		{"random", Random, true},
		{"", 0, false},
		{"Angle", 0, false},
		{"MR-Angle", 0, false}, // the wire name is UnmarshalText's
		{"seq", 0, false},
	} {
		got, err := ParseScheme(tt.flag)
		if tt.ok && (err != nil || got != tt.want) {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", tt.flag, got, err, tt.want)
		}
		if !tt.ok {
			if err == nil {
				t.Errorf("ParseScheme(%q) accepted as %v", tt.flag, got)
				continue
			}
			for _, name := range []string{strconv.Quote(tt.flag), "angle", "grid", "dim", "random"} {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("ParseScheme(%q) error %q does not name %s", tt.flag, err, name)
				}
			}
		}
	}
}

func TestSplitCounts(t *testing.T) {
	tests := []struct {
		m, want int
		product int
	}{
		{1, 4, 4},
		{2, 4, 4},   // 2×2, the paper's figure
		{2, 8, 8},   // 4×2
		{3, 8, 8},   // 2×2×2
		{9, 8, 8},   // 2×2×2×1×1×1×1×1×1
		{2, 5, 8},   // rounds up to next reachable product
		{1, 1, 1},   // degenerate
		{10, 1, 1},  // no splits at all
		{2, 16, 16}, // 4×4
	}
	for _, tt := range tests {
		got := splitCounts(tt.m, tt.want)
		if len(got) != tt.m {
			t.Errorf("splitCounts(%d, %d) has %d axes", tt.m, tt.want, len(got))
		}
		if p := product(got); p != tt.product {
			t.Errorf("splitCounts(%d, %d) product = %d (%v), want %d", tt.m, tt.want, p, got, tt.product)
		}
		// Balance: no axis should exceed twice another.
		lo, hi := got[0], got[0]
		for _, s := range got {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		if hi > 2*lo {
			t.Errorf("splitCounts(%d, %d) unbalanced: %v", tt.m, tt.want, got)
		}
	}
}

func TestBucketClamps(t *testing.T) {
	if b := bucket(-5, 0, 10, 4); b != 0 {
		t.Errorf("below-range bucket = %d", b)
	}
	if b := bucket(15, 0, 10, 4); b != 3 {
		t.Errorf("above-range bucket = %d", b)
	}
	if b := bucket(10, 0, 10, 4); b != 3 {
		t.Errorf("at-max bucket = %d", b)
	}
	if b := bucket(5, 5, 5, 4); b != 0 {
		t.Errorf("degenerate-range bucket = %d", b)
	}
}

func TestDimensionalAssign(t *testing.T) {
	p, err := NewDimensional(0, 0, 100, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pt   points.Point
		want int
	}{
		{points.Point{0, 50}, 0},
		{points.Point{24.9, 0}, 0},
		{points.Point{25, 0}, 1},
		{points.Point{99, 1}, 3},
		{points.Point{100, 1}, 3}, // clamped at the top
	}
	for _, c := range cases {
		got, err := p.Assign(c.pt)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Assign(%v) = %d, want %d", c.pt, got, c.want)
		}
	}
}

func TestDimensionalErrors(t *testing.T) {
	if _, err := NewDimensional(2, 0, 1, 4, 2); err == nil {
		t.Error("out-of-range dim accepted")
	}
	if _, err := NewDimensional(0, 5, 1, 4, 2); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := NewDimensional(0, 0, 1, 0, 2); err == nil {
		t.Error("zero partitions accepted")
	}
	p, _ := NewDimensional(0, 0, 1, 4, 2)
	if _, err := p.Assign(points.Point{0.5}); err == nil {
		t.Error("wrong-dimension point accepted")
	}
	if _, err := p.Assign(points.Point{math.NaN(), 1}); err == nil {
		t.Error("NaN point accepted")
	}
}

func TestGridAssignAndCorners(t *testing.T) {
	g, err := NewGrid(points.Point{0, 0}, points.Point{100, 100}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Partitions() != 4 {
		t.Fatalf("partitions = %d, want 4", g.Partitions())
	}
	// 2×2 grid: quadrant identities.
	ids := map[string]int{}
	for name, pt := range map[string]points.Point{
		"bottom-left":  {10, 10},
		"bottom-right": {90, 10},
		"top-left":     {10, 90},
		"top-right":    {90, 90},
	} {
		id, err := g.Assign(pt)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
	}
	seen := map[int]bool{}
	for name, id := range ids {
		if seen[id] {
			t.Errorf("quadrant %s shares a cell id", name)
		}
		seen[id] = true
	}
	lo, hi := g.cellCorners(ids["bottom-left"])
	if !lo.Equal(points.Point{0, 0}) || !hi.Equal(points.Point{50, 50}) {
		t.Errorf("bottom-left corners = %v, %v", lo, hi)
	}
}

func TestGridPrunable(t *testing.T) {
	g, err := NewGrid(points.Point{0, 0}, points.Point{100, 100}, 4)
	if err != nil {
		t.Fatal(err)
	}
	bl, _ := g.Assign(points.Point{10, 10})
	tr, _ := g.Assign(points.Point{90, 90})
	br, _ := g.Assign(points.Point{90, 10})
	tl, _ := g.Assign(points.Point{10, 90})

	occupied := make([]bool, g.Partitions())
	occupied[bl], occupied[tr], occupied[br], occupied[tl] = true, true, true, true
	pruned := g.Prunable(occupied)
	if !pruned[tr] {
		t.Error("top-right cell not pruned despite occupied bottom-left (paper's 25% case)")
	}
	if pruned[bl] || pruned[br] || pruned[tl] {
		t.Errorf("side cells wrongly pruned: bl=%v br=%v tl=%v", pruned[bl], pruned[br], pruned[tl])
	}

	// Without the bottom-left cell occupied, nothing dominates top-right.
	occupied[bl] = false
	pruned = g.Prunable(occupied)
	if pruned[tr] {
		t.Error("top-right pruned with no dominating occupied cell")
	}
}

func TestGridPrunableIsSound(t *testing.T) {
	// Property: every point in a pruned cell is strictly dominated by some
	// point in another cell.
	rng := rand.New(rand.NewSource(77))
	s := uniformSet(77, 500, 3)
	g, err := NewGrid(points.Point{0, 0, 0}, points.Point{100, 100, 100}, 8)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, len(s))
	occupied := make([]bool, g.Partitions())
	for i, pt := range s {
		id, err := g.Assign(pt)
		if err != nil {
			t.Fatal(err)
		}
		assign[i] = id
		occupied[id] = true
	}
	pruned := g.Prunable(occupied)
	for i, pt := range s {
		if !pruned[assign[i]] {
			continue
		}
		dominated := false
		for j, q := range s {
			if assign[j] != assign[i] && points.Dominates(q, pt) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Fatalf("point %v in pruned cell %d is not dominated", pt, assign[i])
		}
	}
	_ = rng
}

func TestAngular2DSectors(t *testing.T) {
	// 4 sectors over [0, π/2]: the sector index must grow with y/x.
	a, err := NewAngular(points.Point{0, 0}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Partitions() != 4 {
		t.Fatalf("partitions = %d, want 4", a.Partitions())
	}
	prev := -1
	for _, pt := range []points.Point{{100, 1}, {100, 60}, {60, 100}, {1, 100}} {
		id, err := a.Assign(pt)
		if err != nil {
			t.Fatal(err)
		}
		if id <= prev {
			t.Errorf("sector ids not monotone in angle: %v -> %d after %d", pt, id, prev)
		}
		prev = id
	}
}

func TestAngularSectorContainsQualityGradient(t *testing.T) {
	// Points on the same ray (same trade-off profile, different quality)
	// must share a sector — the property the paper credits for MR-Angle's
	// balanced local skylines.
	a, err := NewAngular(points.Point{0, 0, 0}, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := points.Point{3, 5, 2}
	want, err := a.Assign(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []float64{0.1, 0.5, 2, 10, 100} {
		scaled := points.Point{base[0] * k, base[1] * k, base[2] * k}
		got, err := a.Assign(scaled)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("scaled point %v in sector %d, ray base in %d", scaled, got, want)
		}
	}
}

func TestAngularOffsetTranslation(t *testing.T) {
	// Negative data is translated; assignment must succeed and cover
	// multiple sectors.
	s := points.Set{{-10, -10}, {-10, 10}, {10, -10}, {5, 5}}
	a, err := NewAngular(points.Point{-10, -10}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, pt := range s {
		id, err := a.Assign(pt)
		if err != nil {
			t.Fatal(err)
		}
		if id < 0 || id >= a.Partitions() {
			t.Fatalf("id %d out of range", id)
		}
		seen[id] = true
	}
	if len(seen) < 2 {
		t.Errorf("translated data collapsed into %d sector(s)", len(seen))
	}
}

func TestAngularErrors(t *testing.T) {
	if _, err := NewAngular(points.Point{0}, 1, 4); err == nil {
		t.Error("1-dim angular accepted")
	}
	if _, err := NewAngular(points.Point{0, 0, 0}, 2, 4); err == nil {
		t.Error("mismatched offset accepted")
	}
	a, _ := NewAngular(points.Point{0, 0}, 2, 4)
	if _, err := a.Assign(points.Point{1, 2, 3}); err == nil {
		t.Error("wrong-dimension point accepted")
	}
}

func TestRandomDeterministicAndInRange(t *testing.T) {
	r, err := NewRandom(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	pt := points.Point{1, 2, 3}
	id1, err := r.Assign(pt)
	if err != nil {
		t.Fatal(err)
	}
	id2, _ := r.Assign(pt)
	if id1 != id2 {
		t.Error("random partitioner not deterministic")
	}
	s := uniformSet(3, 2000, 3)
	counts, err := Histogram(r, s)
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range counts {
		if c == 0 {
			t.Errorf("partition %d empty over 2000 uniform points", id)
		}
	}
	if ImbalanceRatio(counts) > 1.5 {
		t.Errorf("hash partitioner imbalance %g too high", ImbalanceRatio(counts))
	}
}

func TestNewFitsAllSchemes(t *testing.T) {
	s := uniformSet(1, 500, 4)
	for _, scheme := range []Scheme{Dimensional, Grid, Angular, Random} {
		p, err := New(scheme, s, 8)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if p.Partitions() < 8 && scheme != Dimensional {
			t.Errorf("%v: %d partitions < 8", scheme, p.Partitions())
		}
		counts, err := Histogram(p, s)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != len(s) {
			t.Errorf("%v: histogram total %d != %d", scheme, total, len(s))
		}
	}
}

func TestNewErrors(t *testing.T) {
	s := uniformSet(1, 10, 2)
	if _, err := New(Scheme(99), s, 4); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := New(Grid, nil, 4); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := New(Grid, s, 0); err == nil {
		t.Error("zero partitions accepted")
	}
}

// TestNewValidatesOnce: the fit validates the rows it reads, in one pass
// with their bounds, and rejects what points.Set.Validate rejects, in its
// words, under this package's prefix — for every scheme. A set no larger
// than the sample is read, so rejected, whole; on a larger one the error
// names the lowest bad row the sample drew, and MR-Grid's fit, which reads
// every row, the lowest bad row.
func TestNewValidatesOnce(t *testing.T) {
	big := uniformSet(2, 3*fitSampleRows, 3)
	drawn := sampleIndices(rand.New(rand.NewSource(1)), len(big), fitSampleRows)
	isDrawn := make(map[int]bool, len(drawn))
	for _, i := range drawn {
		isDrawn[i] = true
	}
	slices.Sort(drawn)
	first, second := drawn[10], drawn[11]
	unsampled := first - 1
	for isDrawn[unsampled] {
		unsampled--
	}
	big[unsampled] = points.Point{math.NaN(), 1, 1}
	big[first] = points.Point{1, 1}
	big[second] = points.Point{1, math.Inf(1), 1}
	sampled := fmt.Sprintf("partition: points: point %d has dimension 2, want 3", first)
	for scheme, want := range map[Scheme]string{
		Dimensional: sampled,
		Angular:     sampled,
		Random:      sampled,
		Grid:        "partition: " + big.Validate().Error(),
	} {
		if _, err := New(scheme, big, 4); err == nil || err.Error() != want {
			t.Errorf("%v, %d rows: error %v, want %q", scheme, len(big), err, want)
		}
	}

	bad := uniformSet(2, 50, 3)
	bad[49][1] = math.NaN()
	ragged := uniformSet(2, 50, 3)
	ragged[20] = points.Point{1}
	for _, data := range []points.Set{bad, ragged, {}} {
		want := "partition: " + data.Validate().Error()
		for _, scheme := range []Scheme{Dimensional, Grid, Angular, Random} {
			if _, err := New(scheme, data, 4); err == nil || err.Error() != want {
				t.Errorf("%v: error %v, want %q", scheme, err, want)
			}
		}
		for name, fit := range map[string]func() (*AngularPartitioner, error){
			"FitAngular":        func() (*AngularPartitioner, error) { return FitAngular(data, 4) },
			"FitAngularSampled": func() (*AngularPartitioner, error) { return FitAngularSampled(data, 4, 10, 1) },
		} {
			if _, err := fit(); err == nil || err.Error() != want {
				t.Errorf("%s: error %v, want %q", name, err, want)
			}
		}
	}
}

// TestFitReadsOnlyItsSample: on 10⁵ rows the fit reads its sample and no
// other row — a NaN outside it does not stop MR-Angle's, MR-Dim's or the
// random fit, while MR-Grid's, which reads every row for its box, refuses
// it — and it is a function of the input alone: two fits of one set are
// deeply equal, and the box Fit returns is the sample's.
func TestFitReadsOnlyItsSample(t *testing.T) {
	data := uniformSet(5, 100000, 6)
	drawn := sampleIndices(rand.New(rand.NewSource(1)), len(data), fitSampleRows)
	isDrawn := make(map[int]bool, len(drawn))
	for _, i := range drawn {
		isDrawn[i] = true
	}
	bad := len(data) / 2
	for isDrawn[bad] {
		bad++
	}
	data[bad] = points.Point{1, 2, math.NaN(), 4, 5, 6}
	sample := make(points.Set, len(drawn))
	for i, j := range drawn {
		sample[i] = data[j]
	}
	sampleMin, sampleMax := sample.Bounds()
	for _, scheme := range []Scheme{Dimensional, Angular, Random} {
		a, lo, hi, err := Fit(scheme, data, 8)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		b, err := New(scheme, data, 8)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: two fits of one input differ", scheme)
		}
		if !lo.Equal(sampleMin) || !hi.Equal(sampleMax) {
			t.Errorf("%v: fitted box [%v, %v], the sample's is [%v, %v]", scheme, lo, hi, sampleMin, sampleMax)
		}
		if _, err := a.Assign(data[bad]); err == nil {
			t.Errorf("%v: Assign accepted the NaN row the fit did not read", scheme)
		}
	}
	want := "partition: " + data.Validate().Error()
	if _, err := New(Grid, data, 8); err == nil || err.Error() != want {
		t.Errorf("MR-Grid: error %v, want %q", err, want)
	}
}

// The headline structural claim of the paper: angular partitions all
// intersect the global skyline region, so local skyline sizes are far more
// balanced than grid's, where the top-right region is pure garbage.
func TestAngularBalancesSkylineExposure(t *testing.T) {
	s := uniformSet(99, 4000, 2)
	ang, err := New(Angular, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := New(Grid, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Count, per partitioner, how many partitions contain at least one
	// point with small norm (quality side) and one with large norm.
	check := func(p Partitioner) int {
		type minmax struct{ lo, hi float64 }
		agg := map[int]*minmax{}
		for _, pt := range s {
			id, err := p.Assign(pt)
			if err != nil {
				t.Fatal(err)
			}
			m, ok := agg[id]
			if !ok {
				m = &minmax{math.Inf(1), math.Inf(-1)}
				agg[id] = m
			}
			n := pt.Norm()
			if n < m.lo {
				m.lo = n
			}
			if n > m.hi {
				m.hi = n
			}
		}
		full := 0
		for _, m := range agg {
			if m.lo < 40 && m.hi > 100 {
				full++
			}
		}
		return full
	}
	angFull, gridFull := check(ang), check(grid)
	if angFull < ang.Partitions() {
		t.Errorf("only %d/%d angular sectors span the quality gradient", angFull, ang.Partitions())
	}
	if gridFull >= grid.Partitions() {
		t.Errorf("grid unexpectedly spans the gradient in all %d cells", gridFull)
	}
}

func TestImbalanceRatio(t *testing.T) {
	if r := ImbalanceRatio([]int{10, 10, 10, 10}); math.Abs(r-1) > 1e-12 {
		t.Errorf("balanced ratio = %g", r)
	}
	if r := ImbalanceRatio([]int{40, 0, 0, 0}); math.Abs(r-4) > 1e-12 {
		t.Errorf("skewed ratio = %g", r)
	}
	if r := ImbalanceRatio(nil); r != 0 {
		t.Errorf("nil ratio = %g", r)
	}
	if r := ImbalanceRatio([]int{0, 0}); r != 0 {
		t.Errorf("all-zero ratio = %g", r)
	}
}

func BenchmarkAssign(b *testing.B) {
	s := uniformSet(1, 1, 10)
	pt := s[0]
	full := uniformSet(2, 100, 10)
	for _, scheme := range []Scheme{Dimensional, Grid, Angular, Random} {
		p, err := New(scheme, full, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(scheme.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Assign(pt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The angular lookup over cache-resident rows of the benchmark's
	// inputs, cycling through 1024 rows so the bucket branches see real
	// data; exact=all forces every lookup onto the Atan2 fallback (the
	// cost before the tangent-space lookup, plus the failed attempt). At 8
	// partitions every level is a one-cut cell; at 64, d = 6 adds a 3-cut
	// level; ind2 at 256 is one 255-cut cell, halved down to tanLinear.
	for _, in := range []struct {
		name  string
		data  points.Set
		wants []int
	}{
		{"corr6", dataset.Correlated(11, 100000, 6), []int{8, 64}},
		{"ind6", dataset.Independent(11, 100000, 6), []int{8, 64}},
		{"qws10", qws.Extend(qws.Generate(2012, 10000, 10), 11, 50000), []int{8, 64}},
		{"ind2", dataset.Independent(11, 100000, 2), []int{256}},
	} {
		for _, want := range in.wants {
			for _, exact := range []bool{false, true} {
				p, err := New(Angular, in.data, want)
				if err != nil {
					b.Fatal(err)
				}
				name := fmt.Sprintf("angular/%s/p=%d", in.name, want)
				if exact {
					name += "/exact=all"
					for _, level := range p.(*AngularPartitioner).levels {
						for j := range level.tan2 {
							level.tan2[j] = math.NaN()
						}
					}
				}
				rows := in.data[:1024]
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := p.Assign(rows[i&1023]); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
