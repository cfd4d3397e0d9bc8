package skyline

import (
	"math/rand"
	"testing"

	"repro/internal/points"
)

func TestNNPivotIsUndominated(t *testing.T) {
	// §IV's claim: the nearest neighbor to the ideal corner is skyline.
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		n := 20 + rng.Intn(100)
		s := make(points.Set, n)
		for i := range s {
			s[i] = points.Point{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		}
		min, max := s.Bounds()
		span := []float64{max[0] - min[0], max[1] - min[1], max[2] - min[2]}
		for j := range span {
			if span[j] == 0 {
				span[j] = 1
			}
		}
		pivot, best := 0, 1e18
		for i, p := range s {
			dist := 0.0
			for j := range p {
				v := (p[j] - min[j]) / span[j]
				dist += v * v
			}
			if dist < best {
				best, pivot = dist, i
			}
		}
		for i, q := range s {
			if i != pivot && points.Dominates(q, s[pivot]) {
				t.Fatalf("nearest neighbor %v dominated by %v", s[pivot], q)
			}
		}
	}
}

func TestSkyband(t *testing.T) {
	// Chain: (0,0) < (1,1) < (2,2) < (3,3).
	s := points.Set{{3, 3}, {1, 1}, {0, 0}, {2, 2}}
	for k := 1; k <= 4; k++ {
		got, err := Skyband(s, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Errorf("k=%d: %d points, want %d (chain prefix)", k, len(got), k)
		}
	}
	if _, err := Skyband(s, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSkyband1EqualsSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	s := make(points.Set, 300)
	for i := range s {
		s[i] = points.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	band, err := Skyband(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(band, Naive(s)) {
		t.Error("1-skyband differs from skyline")
	}
}

func TestSkybandMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	s := make(points.Set, 200)
	for i := range s {
		s[i] = points.Point{rng.Float64(), rng.Float64()}
	}
	prev := 0
	for k := 1; k <= 5; k++ {
		band, err := Skyband(s, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(band) < prev {
			t.Errorf("skyband shrank from %d to %d at k=%d", prev, len(band), k)
		}
		prev = len(band)
	}
	// k = n covers everything.
	band, err := Skyband(s, len(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(band) != len(s) {
		t.Errorf("k=n skyband has %d of %d points", len(band), len(s))
	}
}

func TestTopKDominating(t *testing.T) {
	// (0,0) dominates 3, (1,1) dominates 2, (2,2) dominates 1, (3,3) none.
	s := points.Set{{3, 3}, {1, 1}, {0, 0}, {2, 2}}
	got := TopKDominating(s, 2)
	if len(got) != 2 || !got[0].Equal(points.Point{0, 0}) || !got[1].Equal(points.Point{1, 1}) {
		t.Errorf("TopKDominating = %v", got)
	}
	if got := TopKDominating(s, 0); got != nil {
		t.Errorf("k=0 gave %v", got)
	}
	if got := TopKDominating(nil, 3); got != nil {
		t.Errorf("empty gave %v", got)
	}
	if got := TopKDominating(s, 99); len(got) != 4 {
		t.Errorf("k>n gave %d points", len(got))
	}
}

func TestTopKDominatingDeterministicTies(t *testing.T) {
	// Two incomparable points each dominating one other: ties resolve by
	// input order.
	s := points.Set{{1, 5}, {5, 1}, {2, 6}, {6, 2}}
	got := TopKDominating(s, 2)
	if !got[0].Equal(points.Point{1, 5}) || !got[1].Equal(points.Point{5, 1}) {
		t.Errorf("tie-break order = %v", got)
	}
}
