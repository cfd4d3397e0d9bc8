package points

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestDominatesBasic(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want bool
	}{
		{"strictly better all dims", Point{1, 1}, Point{2, 2}, true},
		{"equal one dim better other", Point{1, 1}, Point{1, 2}, true},
		{"equal points", Point{1, 2}, Point{1, 2}, false},
		{"worse one dim", Point{1, 3}, Point{2, 2}, false},
		{"reverse", Point{2, 2}, Point{1, 1}, false},
		{"mismatched dims", Point{1}, Point{1, 2}, false},
		{"empty", Point{}, Point{}, false},
		{"single dim better", Point{1}, Point{2}, true},
		{"single dim equal", Point{1}, Point{1}, false},
		{"negative coords", Point{-3, -3}, Point{-1, -1}, true},
		{"high dim dominate", Point{1, 1, 1, 1, 1}, Point{1, 1, 1, 1, 2}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dominates(tt.p, tt.q); got != tt.want {
				t.Errorf("Dominates(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestDominatesOrEqual(t *testing.T) {
	if !DominatesOrEqual(Point{1, 2}, Point{1, 2}) {
		t.Error("point should weakly dominate itself")
	}
	if !DominatesOrEqual(Point{1, 1}, Point{1, 2}) {
		t.Error("weakly better point should weakly dominate")
	}
	if DominatesOrEqual(Point{1, 3}, Point{1, 2}) {
		t.Error("worse point must not weakly dominate")
	}
	if DominatesOrEqual(Point{1}, Point{1, 2}) {
		t.Error("mismatched dims must not weakly dominate")
	}
}

// Property: dominance is irreflexive and asymmetric.
func TestDominanceAsymmetryProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		p, q := Point(a[:]), Point(b[:])
		if Dominates(p, p) {
			return false
		}
		if Dominates(p, q) && Dominates(q, p) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: dominance is transitive.
func TestDominanceTransitivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		d := 1 + rng.Intn(5)
		a, b, c := randPoint(rng, d), randPoint(rng, d), randPoint(rng, d)
		// Force some dominance chains to exist: make b >= a, c >= b.
		for i := range b {
			b[i] = a[i] + rng.Float64()
			c[i] = b[i] + rng.Float64()
		}
		if Dominates(a, b) && Dominates(b, c) && !Dominates(a, c) {
			t.Fatalf("transitivity violated: a=%v b=%v c=%v", a, b, c)
		}
	}
}

func randPoint(rng *rand.Rand, d int) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = rng.Float64() * 10
	}
	return p
}

func TestMinMaxWith(t *testing.T) {
	p := Point{1, 5}
	p.MinWith(Point{3, 2})
	if !p.Equal(Point{1, 2}) {
		t.Errorf("MinWith = %v, want (1, 2)", p)
	}
	p = Point{1, 5}
	p.MaxWith(Point{3, 2})
	if !p.Equal(Point{3, 5}) {
		t.Errorf("MaxWith = %v, want (3, 5)", p)
	}
}

func TestNormAndSum(t *testing.T) {
	p := Point{3, 4}
	if got := p.Norm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm = %g, want 5", got)
	}
	if got := p.Sum(); got != 7 {
		t.Errorf("Sum = %g, want 7", got)
	}
	if got := (Point{}).Norm(); got != 0 {
		t.Errorf("empty Norm = %g, want 0", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Point{1, 2}).Validate(); err != nil {
		t.Errorf("valid point rejected: %v", err)
	}
	if err := (Point{}).Validate(); err == nil {
		t.Error("empty point accepted")
	}
	if err := (Point{math.NaN()}).Validate(); err == nil {
		t.Error("NaN accepted")
	}
	if err := (Point{math.Inf(1)}).Validate(); err == nil {
		t.Error("+Inf accepted")
	}
}

func TestSetValidate(t *testing.T) {
	if err := (Set{{1, 2}, {3, 4}}).Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	if err := (Set{}).Validate(); err == nil {
		t.Error("empty set accepted")
	}
	if err := (Set{{1, 2}, {3}}).Validate(); err == nil {
		t.Error("ragged set accepted")
	}
	if err := (Set{{1, 2}, {math.NaN(), 1}}).Validate(); err == nil {
		t.Error("NaN set accepted")
	}
}

func TestBounds(t *testing.T) {
	s := Set{{1, 8}, {4, 2}, {3, 3}}
	min, max := s.Bounds()
	if !min.Equal(Point{1, 2}) || !max.Equal(Point{4, 8}) {
		t.Errorf("Bounds = %v, %v", min, max)
	}
	// Bounds must not alias the input.
	min[0] = -99
	if s[0][0] == -99 {
		t.Error("Bounds aliases input point")
	}
}

// TestValidateBoundsMatchesValidateAndBounds: the fused pass is the two
// reference passes — same verdict, same wording, same box — on clean and
// hostile sets alike, including ±0 and a first point that is the extreme.
func TestValidateBoundsMatchesValidateAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	clean := make(Set, 300)
	for i := range clean {
		clean[i] = Point{rng.NormFloat64(), float64(rng.Intn(3)) - 1, rng.Float64() * 1e300}
	}
	clean[0], clean[7] = Point{-1e9, 0, 1e308}, Point{0, math.Copysign(0, -1), 0}
	with := func(i int, p Point) Set {
		s := clean.Clone()
		s[i] = p
		return s
	}
	for name, s := range map[string]Set{
		"clean":          clean,
		"single":         {{3, 1}},
		"empty":          {},
		"nil":            nil,
		"NaN last":       with(299, Point{1, 2, math.NaN()}),
		"+Inf":           with(40, Point{math.Inf(1), 2, 3}),
		"-Inf first":     with(0, Point{1, math.Inf(-1), 3}),
		"short mid-set":  with(150, Point{1, 2}),
		"long mid-set":   with(150, Point{1, 2, 3, 4}),
		"NaN and short":  with(150, Point{math.NaN(), 2}),
		"zero-dim":       with(9, Point{}),
		"zero-dim first": with(0, Point{}),
	} {
		min, max, err := s.ValidateBounds()
		want := s.Validate()
		if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
			t.Errorf("%s: ValidateBounds error %v, Validate %v", name, err, want)
			continue
		}
		if err != nil {
			if min != nil || max != nil {
				t.Errorf("%s: bounds returned beside an error", name)
			}
			continue
		}
		wmin, wmax := s.Bounds()
		for j := range wmin {
			if math.Float64bits(min[j]) != math.Float64bits(wmin[j]) || math.Float64bits(max[j]) != math.Float64bits(wmax[j]) {
				t.Errorf("%s: bounds (%v, %v), want (%v, %v)", name, min, max, wmin, wmax)
			}
		}
		min[0] = -99
		if s[0][0] == -99 {
			t.Errorf("%s: ValidateBounds aliases the input", name)
		}
	}
}

// TestValidateBoundsSharesMatchSerial: the pass over 1, 2, 3 and 8 contiguous
// shares is the serial pass — the same box bit for bit, signed zeros and ties
// between shares included, and on a hostile set the same error: the lowest
// offending row's, however many shares hold an offender.
func TestValidateBoundsSharesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	random := func(n int) Set {
		s := make(Set, n)
		for i := range s {
			// A coarse middle column: its extremes, and both zeros, recur in every share.
			s[i] = Point{rng.NormFloat64(), math.Copysign(float64(rng.Intn(3)), rng.Float64()-0.5), rng.Float64() * 1e300}
		}
		return s
	}
	same := func(name string, s Set, shares int) error {
		t.Helper()
		wmin, wmax, werr := s.ValidateBounds()
		min, max, err := s.validateBounds(shares)
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Errorf("%s, %d shares: error %v, serial pass %v", name, shares, err, werr)
			return err
		}
		if len(min) != len(wmin) || len(max) != len(wmax) {
			t.Fatalf("%s, %d shares: bounds (%v, %v), serial pass (%v, %v)", name, shares, min, max, wmin, wmax)
		}
		for j := range wmin {
			if math.Float64bits(min[j]) != math.Float64bits(wmin[j]) || math.Float64bits(max[j]) != math.Float64bits(wmax[j]) {
				t.Errorf("%s, %d shares: bounds (%v, %v), serial pass (%v, %v)", name, shares, min, max, wmin, wmax)
			}
		}
		return err
	}
	bad := map[string]Point{"NaN": {1, math.NaN(), 3}, "+Inf": {math.Inf(1), 2, 3}, "-Inf": {1, 2, math.Inf(-1)},
		"short": {1, 2}, "long": {1, 2, 3, 4}, "zero-dim": {}}
	for _, shares := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 2, 5, 7, 8, 9, 300, 1001} { // n < shares and n = 1 among them
			same(fmt.Sprintf("random n=%d", n), random(n), shares)
		}
		same("empty", Set{}, shares)
		for name, p := range bad {
			// An offender closes every share, and one of another kind comes
			// before them all: the pass reports that one.
			s := random(240)
			for k := 1; k <= shares; k++ {
				s[k*len(s)/shares-1] = Point{math.NaN(), 0}
			}
			s[rng.Intn(len(s)/shares-1)] = p
			if same(name+" in every share", s, shares) == nil || same(name+" first", append(Set{p}, random(50)...), shares) == nil {
				t.Errorf("%s, %d shares: a hostile set passed", name, shares)
			}
		}
	}
	// The exported pass: workers beyond the row floor change nothing either.
	big := random(3*boundsShareRows + 17)
	wmin, wmax, _ := big.ValidateBounds()
	for _, workers := range []int{0, 1, 2, 8} {
		min, max, err := big.ValidateBoundsOn(workers)
		if err != nil || !reflect.DeepEqual([]Point{min, max}, []Point{wmin, wmax}) {
			t.Errorf("ValidateBoundsOn(%d) = %v, %v, %v; serial pass %v, %v", workers, min, max, err, wmin, wmax)
		}
	}
}

// TestValidateBoundsOfReadsOnlyItsRows: over the listed rows (in any
// order) ValidateBoundsOf is ValidateBounds of those rows as a set, and a
// bad row it is not given is not read; among the rows it reads — the listed
// ones and row 0 — the error is Validate's for the lowest offending one.
func TestValidateBoundsOfReadsOnlyItsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := make(Set, 500)
	for i := range s {
		s[i] = Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	rows := rng.Perm(len(s) - 1)[:100] // rows 1…499: row 0 is checked, not listed
	sub := make(Set, len(rows))
	for i := range rows {
		rows[i]++
		sub[i] = s[rows[i]]
	}
	wmin, wmax, _ := sub.ValidateBounds()
	unlisted := 1
	for slices.Contains(rows, unlisted) {
		unlisted++
	}
	s[unlisted] = Point{math.NaN(), 0, 0}
	min, max, err := s.ValidateBoundsOf(rows)
	if err != nil || !reflect.DeepEqual([]Point{min, max}, []Point{wmin, wmax}) {
		t.Fatalf("ValidateBoundsOf = %v, %v, %v; the rows' own pass %v, %v", min, max, err, wmin, wmax)
	}
	hi, lo := slices.Max(rows), slices.Min(rows)
	s[hi], s[lo] = Point{1, math.Inf(1), 0}, Point{1, 2}
	if _, _, err := s.ValidateBoundsOf(rows); err == nil || err.Error() != fmt.Sprintf("points: point %d has dimension 2, want 3", lo) {
		t.Errorf("two bad rows listed: error %v, want the lower one's", err)
	}
	s[0] = Point{}
	if _, _, err := s.ValidateBoundsOf(rows); err == nil || err.Error() != "point 0: points: zero-dimensional point" {
		t.Errorf("a zero-dimensional row 0: error %v", err)
	}
	if _, _, err := (Set{}).ValidateBoundsOf(nil); err == nil {
		t.Error("an empty set passed")
	}
}

func TestBoundsPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Bounds on empty set did not panic")
		}
	}()
	(Set{}).Bounds()
}

func TestProject(t *testing.T) {
	s := Set{{1, 2, 3}, {4, 5, 6}}
	got := s.Project(2)
	if got.Dim() != 2 || !got[1].Equal(Point{4, 5}) {
		t.Errorf("Project = %v", got)
	}
	// Projection must not alias.
	got[0][0] = -1
	if s[0][0] == -1 {
		t.Error("Project aliases input")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := Set{{1, 2}}
	c := s.Clone()
	c[0][0] = 42
	if s[0][0] == 42 {
		t.Error("Clone aliases input")
	}
}

func TestKeyAndDedup(t *testing.T) {
	a, b := Point{1.5, 2.25}, Point{1.5, 2.25}
	if Key(a) != Key(b) {
		t.Error("equal points have different keys")
	}
	if Key(Point{1, 2}) == Key(Point{2, 1}) {
		t.Error("distinct points share a key")
	}
	s := Set{{1, 2}, {1, 2}, {3, 4}, {1, 2}}
	d := s.Dedup()
	if len(d) != 2 || !d[0].Equal(Point{1, 2}) || !d[1].Equal(Point{3, 4}) {
		t.Errorf("Dedup = %v", d)
	}
}

func TestKeyDistinguishesNegativeZero(t *testing.T) {
	// -0.0 and +0.0 compare equal with ==; Equal treats them equal, so Key
	// must too for Dedup to match Contains semantics. Document the actual
	// behaviour: FormatFloat 'b' distinguishes them, so normalize here if
	// this ever matters. For now assert Contains/Dedup consistency on
	// regular values.
	s := Set{{0}, {0}}
	if len(s.Dedup()) != 1 {
		t.Error("zeros not deduplicated")
	}
}

func TestContains(t *testing.T) {
	s := Set{{1, 2}, {3, 4}}
	if !s.Contains(Point{3, 4}) {
		t.Error("Contains missed member")
	}
	if s.Contains(Point{3, 5}) {
		t.Error("Contains false positive")
	}
}

func TestString(t *testing.T) {
	got := Point{1, 2.5}.String()
	if got != "(1, 2.5)" {
		t.Errorf("String = %q", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := Set{{1.5, 2}, {3, 4.25}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s, []string{"rt", "cost"}); err != nil {
		t.Fatal(err)
	}
	got, header, err := ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(header) != 2 || header[0] != "rt" {
		t.Errorf("header = %v", header)
	}
	if len(got) != 2 || !got[0].Equal(s[0]) || !got[1].Equal(s[1]) {
		t.Errorf("round trip = %v, want %v", got, s)
	}
}

func TestCSVNoHeader(t *testing.T) {
	in := "1,2\n3,4\n"
	got, header, err := ReadCSV(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if header != nil {
		t.Errorf("header = %v, want nil", header)
	}
	if len(got) != 2 || !got[1].Equal(Point{3, 4}) {
		t.Errorf("got %v", got)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, _, err := ReadCSV(strings.NewReader("1,2\n3\n"), false); err == nil {
		t.Error("ragged CSV accepted")
	}
	if _, _, err := ReadCSV(strings.NewReader("1,x\n"), false); err == nil {
		t.Error("non-numeric CSV accepted")
	}
	if err := WriteCSV(&bytes.Buffer{}, Set{{1, 2}}, []string{"only-one"}); err == nil {
		t.Error("mismatched header accepted")
	}
}

func TestCSVEmptyInput(t *testing.T) {
	got, _, err := ReadCSV(strings.NewReader(""), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %v from empty input", got)
	}
}
