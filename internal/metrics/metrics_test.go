package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/points"
)

func TestLocalSkylineOptimality(t *testing.T) {
	global := points.Set{{1, 1}, {2, 0}, {0, 2}}
	local := map[int]points.Set{
		0: {{1, 1}, {5, 5}}, // 1 of 2 global
		1: {{2, 0}},         // 1 of 1
		2: {{9, 9}, {8, 8}}, // 0 of 2
		3: {},               // empty: ignored
	}
	got := LocalSkylineOptimality(local, global)
	want := (0.5 + 1.0 + 0.0) / 3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("optimality = %g, want %g", got, want)
	}
}

func TestLocalSkylineOptimalityEdge(t *testing.T) {
	if got := LocalSkylineOptimality(nil, nil); got != 0 {
		t.Errorf("empty = %g", got)
	}
	if got := LocalSkylineOptimality(map[int]points.Set{0: {}}, points.Set{{1}}); got != 0 {
		t.Errorf("all-empty partitions = %g", got)
	}
	// Perfect case: every local skyline point is global.
	local := map[int]points.Set{0: {{1, 2}}, 1: {{2, 1}}}
	global := points.Set{{1, 2}, {2, 1}}
	if got := LocalSkylineOptimality(local, global); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect = %g, want 1", got)
	}
}

func TestGlobalSurvivors(t *testing.T) {
	global := points.Set{{1, 1}}
	local := map[int]points.Set{
		0: {{1, 1}, {3, 3}},
		1: {{2, 2}},
		2: {},
	}
	got := GlobalSurvivors(local, global)
	if len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 0 {
		t.Errorf("survivors = %v, want map[0:1 1:0 2:0]", got)
	}
}

func TestTheorem1ClosedFormVsMonteCarlo(t *testing.T) {
	// For several services in the bottom sector (y ≤ x/2), the analytic
	// dominance ability must match the Monte-Carlo estimate.
	const l = 1.0
	cases := []struct{ x, y float64 }{
		{0.2, 0.05},
		{0.5, 0.2},
		{1.0, 0.3},
		{1.5, 0.6},
	}
	for _, c := range cases {
		analytic := DominanceAbilityAngle(c.x, c.y, l)
		mc := MonteCarloDominance(c.x, c.y, l, true, 400000, 1)
		if math.Abs(analytic-mc) > 0.01 {
			t.Errorf("(%g,%g): analytic %g vs MC %g", c.x, c.y, analytic, mc)
		}
	}
}

func TestGridClosedFormVsMonteCarlo(t *testing.T) {
	const l = 1.0
	cases := []struct{ x, y float64 }{
		{0.2, 0.05},
		{0.5, 0.2},
		{0.9, 0.4},
	}
	for _, c := range cases {
		analytic := DominanceAbilityGrid(c.x, c.y, l)
		mc := MonteCarloDominance(c.x, c.y, l, false, 400000, 2)
		if math.Abs(analytic-mc) > 0.01 {
			t.Errorf("(%g,%g): analytic %g vs MC %g", c.x, c.y, analytic, mc)
		}
	}
}

func TestTheorem2Inequality(t *testing.T) {
	// ΔD = D_angle − D_grid ≥ x/(2L²)(L − x/2) for all x in [0, 2L],
	// y ≤ min(x/2, L) (the service must sit in both bottom-sector and
	// bottom-left-cell for the comparison).
	const l = 1.0
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20000; trial++ {
		x := rng.Float64() * 2 * l
		yMax := math.Min(x/2, l)
		y := rng.Float64() * yMax
		delta := DominanceAbilityAngle(x, y, l) - DominanceAbilityGrid(x, y, l)
		bound := DominanceGapLowerBound(x, l)
		if delta < bound-1e-9 {
			t.Fatalf("x=%g y=%g: ΔD=%g below bound %g", x, y, delta, bound)
		}
	}
}

func TestTheorem2BoundNonNegative(t *testing.T) {
	// The bound x/(2L²)(L−x/2) is ≥ 0 on [0, 2L], so Theorem 2 indeed
	// implies MR-Angle dominance ability never loses to MR-Grid there.
	const l = 1.0
	for x := 0.0; x <= 2*l; x += 0.01 {
		if DominanceGapLowerBound(x, l) < 0 {
			t.Fatalf("bound negative at x=%g", x)
		}
	}
}

func TestEmpiricalDominanceAbility(t *testing.T) {
	all := points.Set{{1, 1}, {2, 2}, {3, 3}, {0, 5}}
	got := EmpiricalDominanceAbility(points.Point{1, 1}, all)
	// (1,1) dominates (2,2) and (3,3) out of 4 points.
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("empirical = %g, want 0.5", got)
	}
	if EmpiricalDominanceAbility(points.Point{1, 1}, nil) != 0 {
		t.Error("empty set should give 0")
	}
}

func TestSquarePartitionSectorsEqualArea(t *testing.T) {
	// The theorem's sector geometry: all four sectors of the square carry
	// the same area (L² each of the 4L² square).
	rng := rand.New(rand.NewSource(4))
	const l, n = 1.0, 400000
	counts := [4]int{}
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*2*l, rng.Float64()*2*l
		counts[squarePartition(x, y, l, true)]++
	}
	for s, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.25) > 0.01 {
			t.Errorf("sector %d holds %.3f of the area, want 0.25", s, frac)
		}
	}
}
