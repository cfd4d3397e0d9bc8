package skyline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/points"
)

// paperExample reproduces Figure 1 of the paper: eight services in
// (response time, cost) space where s1..s7 form the skyline and s8 is
// dominated.
func paperExample() (all, wantSky points.Set) {
	s1 := points.Point{1, 9}
	s2 := points.Point{2, 7}
	s3 := points.Point{3, 5}
	s4 := points.Point{4, 4}
	s5 := points.Point{5.5, 3.5}
	s6 := points.Point{7, 3}
	s7 := points.Point{9, 1}
	s8 := points.Point{7.5, 6}
	all = points.Set{s1, s2, s3, s4, s5, s6, s7, s8}
	wantSky = points.Set{s1, s2, s3, s4, s5, s6, s7}
	return all, wantSky
}

// kernels is every sequential kernel the package keeps: the four classic
// Set kernels and the flat BNL the jobs run.
var kernels = map[string]Func{"BNL": BNL, "SFS": SFS, "D&C": DivideConquer, "Naive": Naive, "FlatBNL": FlatBNL}

func TestPaperFigure1(t *testing.T) {
	all, want := paperExample()
	for alg, kernel := range kernels {
		got := kernel(all)
		if len(got) != len(want) {
			t.Errorf("%v: got %d skyline points, want %d: %v", alg, len(got), len(want), got)
			continue
		}
		for _, p := range want {
			if !got.Contains(p) {
				t.Errorf("%v: missing skyline point %v", alg, p)
			}
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	for alg, kernel := range kernels {
		if got := kernel(nil); len(got) != 0 {
			t.Errorf("%v on nil = %v", alg, got)
		}
		p := points.Point{1, 2}
		got := kernel(points.Set{p})
		if len(got) != 1 || !got[0].Equal(p) {
			t.Errorf("%v on singleton = %v", alg, got)
		}
	}
}

func TestAllDominatedByOne(t *testing.T) {
	s := points.Set{{5, 5}, {0, 0}, {9, 1}, {1, 9}, {3, 3}}
	for alg, kernel := range kernels {
		got := kernel(s)
		if len(got) != 1 || !got[0].Equal(points.Point{0, 0}) {
			t.Errorf("%v = %v, want only (0,0)", alg, got)
		}
	}
}

func TestDuplicatesRetained(t *testing.T) {
	// Two coordinate-equal undominated points: both must survive (neither
	// strictly dominates the other).
	s := points.Set{{1, 1}, {1, 1}, {2, 2}}
	for alg, kernel := range kernels {
		got := kernel(s)
		if len(got) != 2 {
			t.Errorf("%v kept %d copies of duplicate skyline point, want 2: %v", alg, len(got), got)
		}
	}
}

func TestAntiChainAllSurvive(t *testing.T) {
	// A diagonal anti-chain: nobody dominates anybody.
	var s points.Set
	for i := 0; i < 50; i++ {
		s = append(s, points.Point{float64(i), float64(50 - i)})
	}
	for alg, kernel := range kernels {
		if got := kernel(s); len(got) != 50 {
			t.Errorf("%v = %d points, want 50", alg, len(got))
		}
	}
}

func TestChainOnlyMinimumSurvives(t *testing.T) {
	var s points.Set
	for i := 20; i >= 0; i-- {
		s = append(s, points.Point{float64(i), float64(i), float64(i)})
	}
	for alg, kernel := range kernels {
		got := kernel(s)
		if len(got) != 1 || got[0][0] != 0 {
			t.Errorf("%v = %v, want only the origin-most point", alg, got)
		}
	}
}

func TestKernelsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(6)
		n := 1 + rng.Intn(400)
		s := make(points.Set, n)
		for i := range s {
			p := make(points.Point, d)
			for j := range p {
				// Coarse grid so duplicates and ties actually occur.
				p[j] = float64(rng.Intn(8))
			}
			s[i] = p
		}
		want := Naive(s)
		for alg, kernel := range kernels {
			got := kernel(s)
			if !sameMultiset(got, want) {
				t.Fatalf("trial %d d=%d n=%d: %v disagrees with oracle\n got: %v\nwant: %v",
					trial, d, n, alg, got, want)
			}
		}
	}
}

// sameMultiset compares two point sets as multisets of coordinates.
func sameMultiset(a, b points.Set) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int, len(a))
	for _, p := range a {
		count[points.Key(p)]++
	}
	for _, p := range b {
		count[points.Key(p)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// Property: the skyline of a set's skyline is itself (idempotence), and no
// skyline member dominates another.
func TestSkylineIdempotentProperty(t *testing.T) {
	f := func(raw [][3]float64) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		s := make(points.Set, len(raw))
		for i, a := range raw {
			s[i] = points.Point{a[0], a[1], a[2]}
		}
		for i := range s {
			if s[i].Validate() != nil {
				return true // skip NaN/Inf draws
			}
		}
		sky := BNL(s)
		again := BNL(sky)
		if !sameMultiset(sky, again) {
			return false
		}
		for i, p := range sky {
			for j, q := range sky {
				if i != j && points.Dominates(p, q) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: every input point is either in the skyline or dominated by a
// skyline point (completeness of the dominance frontier).
func TestSkylineCoversInputProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.Intn(4)
		n := 50 + rng.Intn(200)
		s := make(points.Set, n)
		for i := range s {
			p := make(points.Point, d)
			for j := range p {
				p[j] = rng.Float64() * 100
			}
			s[i] = p
		}
		sky := BNL(s)
		for _, p := range s {
			if sky.Contains(p) {
				continue
			}
			covered := false
			for _, q := range sky {
				if points.Dominates(q, p) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("point %v neither in skyline nor dominated", p)
			}
		}
	}
}

func TestSkylineOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := make(points.Set, 300)
	for i := range s {
		s[i] = points.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	want := BNL(s)
	shuffled := s.Clone()
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	got := BNL(shuffled)
	if !sameMultiset(got, want) {
		t.Error("BNL result depends on input order")
	}
}

func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := make(points.Set, 5000)
	for i := range s {
		s[i] = points.Point{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	for alg, f := range kernels {
		b.Run(alg, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f(s)
			}
		})
	}
}
