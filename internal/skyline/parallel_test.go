package skyline

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/points"
)

func TestParallelMatchesOracle(t *testing.T) {
	// normWorkers caps at GOMAXPROCS; pin it so the fan-out, and with it the
	// merge of more than two partials, runs on any machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		d := 1 + rng.Intn(5)
		n := 1 + rng.Intn(800)
		if trial%5 == 0 { // past the cutoff: the chunked path, not the sequential kernel
			n += parallelCutoff
		}
		s := make(points.Set, n)
		for i := range s {
			p := make(points.Point, d)
			for j := range p {
				p[j] = float64(rng.Intn(10))
			}
			s[i] = p
		}
		want := Naive(s)
		for _, workers := range []int{0, 1, 2, 7, 32} {
			got := Parallel(s, workers)
			if !sameMultiset(got, want) {
				t.Fatalf("trial %d workers=%d: %d points, oracle %d", trial, workers, len(got), len(want))
			}
		}
	}
}

func TestParallelEmptyAndTiny(t *testing.T) {
	if got := Parallel(nil, 4); len(got) != 0 {
		t.Errorf("nil gave %v", got)
	}
	got := Parallel(points.Set{{1, 2}}, 8)
	if len(got) != 1 {
		t.Errorf("singleton gave %v", got)
	}
}

func TestParallelDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	s := make(points.Set, 500)
	for i := range s {
		s[i] = points.Point{rng.Float64(), rng.Float64()}
	}
	orig := s.Clone()
	Parallel(s, 4)
	for i := range s {
		if !s[i].Equal(orig[i]) {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

func BenchmarkParallelVsSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	s := make(points.Set, 20000)
	for i := range s {
		s[i] = points.Point{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BNL(s)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Parallel(s, 0)
		}
	})
}
