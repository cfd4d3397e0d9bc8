package skyline

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/points"
)

// randSet draws n points of dimension d from a small integer grid so
// coordinate-equal duplicates and per-dimension ties are common — the
// regimes where dominance-kernel bugs hide.
func randSet(rng *rand.Rand, n, d int) points.Set {
	s := make(points.Set, n)
	for i := range s {
		p := make(points.Point, d)
		for j := range p {
			p[j] = float64(rng.Intn(8))
		}
		s[i] = p
	}
	return s
}

// TestFlatKernelsMatchOracle asserts that every flat kernel — block BNL
// directly and through its Func wrapper, a classic kernel through the
// BlockKernel adapter, and the parallel path with its merge — returns
// exactly the Naive oracle's skyline as a multiset, across dimensions 1 to
// 10, with duplicates in play.
func TestFlatKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(10)
		n := rng.Intn(500)
		s := randSet(rng, n, d)
		want := Naive(s)
		check := func(name string, got points.Set) {
			t.Helper()
			if !sameMultiset(got, want) {
				t.Fatalf("trial %d (n=%d d=%d) %s: %d points, oracle %d", trial, n, d, name, len(got), len(want))
			}
		}
		check("FlatBNL", FlatBNL(s))
		if b, ok := points.BlockOf(s); ok {
			check("BlockBNL", BlockBNL(b).ToSet())
			check("BlockKernel(SFS)", BlockKernel(SFS)(b).ToSet())
		}
		for _, workers := range []int{0, 1, 3, 8} {
			check("Parallel", Parallel(s, workers))
		}
	}
}

// TestMergeSkylinesMatchesOracle merges one, a few and many partials
// through the shared filter.
func TestMergeSkylinesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for _, parts := range []int{1, 2, 3, 5, 8, 13} {
		d := 1 + rng.Intn(6)
		var partials []points.Set
		var union points.Set
		for i := 0; i < parts; i++ {
			chunk := randSet(rng, rng.Intn(150), d)
			union = append(union, chunk...)
			partials = append(partials, FlatBNL(chunk))
		}
		for _, workers := range []int{0, 1, 4} {
			got := MergeSkylines(context.Background(), partials, workers)
			want := Naive(union)
			if !sameMultiset(got, want) {
				t.Fatalf("parts=%d workers=%d d=%d: %d points, oracle %d", parts, workers, d, len(got), len(want))
			}
		}
	}
}

// TestFlatRetainsDuplicates pins the classical BNL duplicate contract on
// the flat path: coordinate-equal skyline members all survive.
func TestFlatRetainsDuplicates(t *testing.T) {
	s := points.Set{{1, 2}, {1, 2}, {2, 1}, {2, 2}, {1, 2}}
	for name, f := range map[string]Func{"FlatBNL": FlatBNL, "Parallel": func(s points.Set) points.Set { return Parallel(s, 4) }} {
		got := f(s)
		if len(got) != 4 {
			t.Errorf("%s kept %d points, want 4 (three duplicates + (2,1)): %v", name, len(got), got)
		}
	}
}

// TestFlatMixedDimensionFallback: sets the classic kernels tolerate but
// blocks cannot represent must still compute correctly via fallback.
func TestFlatMixedDimensionFallback(t *testing.T) {
	s := points.Set{{1, 2}, {3}, {0, 5}}
	want := Naive(s)
	if got := FlatBNL(s); !sameMultiset(got, want) {
		t.Fatalf("FlatBNL on mixed dims: %v, want %v", got, want)
	}
	if got := Parallel(s, 2); !sameMultiset(got, want) {
		t.Fatalf("Parallel on mixed dims: %v, want %v", got, want)
	}
}

// TestDominanceTestsCounter: the flat kernels must account their pairwise
// tests in the package counter.
func TestDominanceTestsCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	s := randSet(rng, 300, 4)
	before := DominanceTests()
	FlatBNL(s)
	if DominanceTests() == before {
		t.Fatal("BlockBNL recorded no dominance tests")
	}
	before = DominanceTests()
	MergeSkylines(context.Background(), []points.Set{FlatBNL(s[:150]), FlatBNL(s[150:])}, 2)
	if DominanceTests() == before {
		t.Fatal("the merge filter recorded no dominance tests")
	}
}

// FuzzFlatBNL drives the block BNL with fuzz-chosen geometry and checks
// the Naive oracle. Coordinates are quantized so duplicates appear.
func FuzzFlatBNL(f *testing.F) {
	f.Add(int64(1), 10, 2)
	f.Add(int64(2), 100, 7)
	f.Add(int64(3), 50, 9)
	f.Fuzz(func(t *testing.T, seed int64, n, d int) {
		if n < 0 || n > 300 || d < 1 || d > 12 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		s := randSet(rng, n, d)
		want := Naive(s)
		if got := FlatBNL(s); !sameMultiset(got, want) {
			t.Fatalf("FlatBNL diverged from oracle on n=%d d=%d", n, d)
		}
		if got := Parallel(s, 3); !sameMultiset(got, want) {
			t.Fatalf("Parallel diverged from oracle on n=%d d=%d", n, d)
		}
	})
}
