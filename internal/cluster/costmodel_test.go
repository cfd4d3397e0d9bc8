package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/points"
	"repro/internal/skyline"
)

// The simulator prices local skyline computation at bnlComparisons(n, s)
// ≈ n·s/2 + n dominance comparisons, the classic BNL's. Check that estimate
// against the dominance tests the jobs' BNL kernel counts
// (skyline.DominanceTests) on uniform inputs of d = 2…7, whose skyline is
// the classic BNL's: the kernel skips every pair its signatures prove
// incomparable, so the estimate bounds its count from above (it counts
// 1–33 % of it, the less the higher d), and every point it drops needed one
// test, so the count is at least n − s.
func TestBnlComparisonEstimateMatchesInstrumentedBNL(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 500 + rng.Intn(3000)
		d := 2 + rng.Intn(6)
		s := make(points.Set, n)
		for i := range s {
			p := make(points.Point, d)
			for j := range p {
				p[j] = rng.Float64()
			}
			s[i] = p
		}
		before := skyline.DominanceTests()
		sky := skyline.FlatBNL(s)
		actual := skyline.DominanceTests() - before
		if want := skyline.BNL(s); len(sky) != len(want) {
			t.Fatalf("trial %d: the kernel's skyline has %d points, classic BNL's %d", trial, len(sky), len(want))
		}
		est := bnlComparisons(n, len(sky))
		if actual < int64(n-len(sky)) || actual > est {
			t.Errorf("trial %d n=%d d=%d sky=%d: %d dominance tests, want %d…%d (the estimate)",
				trial, n, d, len(sky), actual, n-len(sky), est)
		}
	}
}

// The counted kernel the cost model is checked against must compute the
// classic BNL's skyline and count the tests it makes.
func TestCountingMatchesBNL(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := make(points.Set, 500)
	for i := range s {
		s[i] = points.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	before := skyline.DominanceTests()
	got := skyline.FlatBNL(s)
	counted := skyline.DominanceTests() - before
	want := skyline.BNL(s)
	if len(got) != len(want) {
		t.Fatalf("counting BNL %d points, plain BNL %d", len(got), len(want))
	}
	if counted == 0 {
		t.Error("no comparisons counted")
	}
}
