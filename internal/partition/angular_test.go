package partition

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hyper"
	"repro/internal/points"
	"repro/internal/qws"
)

// fitExact is the MR-Angle partitioner fitted over every row of data, the
// test reference for the sampled fit New makes. Its plan is the second
// result.
func fitExact(data points.Set, want int) (*AngularPartitioner, Plan, error) {
	min, max, err := data.ValidateBounds()
	if err != nil {
		return nil, Plan{}, fmt.Errorf("partition: %w", err)
	}
	return buildAngular(fitPlan(Angular, data, min, max, want))
}

// fitSampled is the MR-Angle partitioner fitted on drawSample's rows of data
// at the given sample size and seed: New's fit at fitSampleRows and fitSeed.
func fitSampled(data points.Set, want, size int, seed int64) (*AngularPartitioner, error) {
	sample, min, max, err := drawSample(data, size, want, seed)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	a, _, err := buildAngular(fitPlan(Angular, sample, min, max, want))
	return a, err
}

func buildAngular(plan Plan, err error) (*AngularPartitioner, Plan, error) {
	if err != nil {
		return nil, Plan{}, err
	}
	part, err := plan.Build()
	if err != nil {
		return nil, Plan{}, err
	}
	return part.(*AngularPartitioner), plan, nil
}

// evenPlan is the MR-Angle plan of equal-width sectors — the textbook
// reading of the paper — for d-dimensional points with the origin at min:
// every cell of angle i is cut at q·(π/2)/k, k its split count.
func evenPlan(min points.Point, want int) Plan {
	d := len(min)
	plan := Plan{Scheme: Angular, Min: min, Max: min, Partitions: want,
		AngularSplits: splitCounts(d-1, want), AngularCuts: make([][][]float64, d-1)}
	cells := 1
	for i, k := range plan.AngularSplits {
		if k > 1 {
			even := make([]float64, k-1)
			for q := range even {
				even[q] = float64(q+1) * hyper.MaxAngle / float64(k)
			}
			for range cells {
				plan.AngularCuts[i] = append(plan.AngularCuts[i], even)
			}
		}
		cells *= k
	}
	return plan
}

// mustBuild is the plan's partitioner, or the test's end.
func mustBuild(t testing.TB, plan Plan) Partitioner {
	t.Helper()
	part, err := plan.Build()
	if err != nil {
		t.Fatal(err)
	}
	return part
}

func TestFitAngularBalancesRealisticData(t *testing.T) {
	// The motivating failure: high-dimensional QoS data concentrates in a
	// narrow angle band, leaving most equal-width sectors empty. The
	// fitted (equi-depth) partitioner must occupy every sector.
	data := qws.Dataset(7, 4000, 6)
	fitted, _, err := fitExact(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := Histogram(fitted, data)
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range counts {
		if c == 0 {
			t.Errorf("fitted sector %d empty", id)
		}
	}
	if r := ImbalanceRatio(counts); r > 1.6 {
		t.Errorf("fitted imbalance %.2f too high (%v)", r, counts)
	}

	min, _ := data.Bounds()
	eqCounts, err := Histogram(mustBuild(t, evenPlan(min, 8)), data)
	if err != nil {
		t.Fatal(err)
	}
	if ImbalanceRatio(eqCounts) <= ImbalanceRatio(counts) {
		t.Errorf("equal-width imbalance %.2f not worse than fitted %.2f",
			ImbalanceRatio(eqCounts), ImbalanceRatio(counts))
	}
}

func TestFitAngularPreservesRayInvariance(t *testing.T) {
	data := qws.Dataset(8, 1000, 4)
	fitted, _, err := fitExact(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	min, _ := data.Bounds()
	// Take a ray from the fitted origin; all its points share a sector.
	base := points.Point{min[0] + 3, min[1] + 5, min[2] + 2, min[3] + 4}
	want, err := fitted.Assign(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []float64{0.5, 2, 7} {
		scaled := make(points.Point, 4)
		for i := range scaled {
			scaled[i] = min[i] + (base[i]-min[i])*k
		}
		got, err := fitted.Assign(scaled)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("ray point at scale %g in sector %d, want %d", k, got, want)
		}
	}
}

// TestPlanRoundTrip: a plan that crossed JSON builds the partitioner it
// built before, assignment for assignment, for every scheme.
func TestPlanRoundTrip(t *testing.T) {
	data := qws.Dataset(9, 2000, 5)
	for _, scheme := range []Scheme{Dimensional, Grid, Angular, Random} {
		plan, err := Fit(scheme, data, 16)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		var back Plan
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, plan) {
			t.Fatalf("%v: plan changed over JSON: %+v, was %+v", scheme, back, plan)
		}
		fitted, rebuilt := mustBuild(t, plan), mustBuild(t, back)
		if rebuilt.Partitions() != fitted.Partitions() {
			t.Fatalf("%v: partitions %d vs %d", scheme, rebuilt.Partitions(), fitted.Partitions())
		}
		for _, pt := range data {
			a, err := fitted.Assign(pt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := rebuilt.Assign(pt)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("%v: assignment mismatch for %v: %d vs %d", scheme, pt, a, b)
			}
		}
	}
}

// angularPlan is an MR-Angle plan over the origin of d-space.
func angularPlan(d int, splits []int, cuts [][][]float64) Plan {
	return Plan{Scheme: Angular, Min: make(points.Point, d), Max: make(points.Point, d), Partitions: 1,
		AngularSplits: splits, AngularCuts: cuts}
}

// TestPlanBuildRefusesBadPlans: a plan Build cannot trust is an error
// under this package's prefix, for every scheme.
func TestPlanBuildRefusesBadPlans(t *testing.T) {
	box := points.Point{0, 0, 0}
	good := func(s Scheme) Plan { return Plan{Scheme: s, Min: box, Max: points.Point{1, 1, 1}, Partitions: 4} }
	bad := map[string]Plan{
		"unknown scheme":      {Scheme: Scheme(99), Min: box, Max: box, Partitions: 4},
		"empty box":           {Scheme: Grid, Partitions: 4},
		"mismatched box":      {Scheme: Grid, Min: box, Max: points.Point{1, 1}, Partitions: 4},
		"inverted box":        {Scheme: Dimensional, Min: points.Point{5, 0}, Max: points.Point{1, 1}, Partitions: 4},
		"NaN bound":           {Scheme: Random, Min: points.Point{math.NaN()}, Max: points.Point{1}, Partitions: 4},
		"infinite bound":      {Scheme: Grid, Min: points.Point{0}, Max: points.Point{math.Inf(1)}, Partitions: 4},
		"zero partitions":     {Scheme: Dimensional, Min: box, Max: box, Partitions: 0},
		"past MaxPartitions":  {Scheme: Random, Min: box, Max: box, Partitions: MaxPartitions + 1},
		"1-dim angular":       {Scheme: Angular, Min: points.Point{0}, Max: points.Point{1}, Partitions: 4},
		"sectors on a grid":   {Scheme: Grid, Min: box, Max: box, Partitions: 4, AngularSplits: []int{2, 2}},
		"wrong split count":   angularPlan(3, []int{2}, [][][]float64{{{0.5}}}),
		"zero split":          angularPlan(3, []int{2, 0}, [][][]float64{{{0.5}}, nil}),
		"no splits":           angularPlan(3, nil, [][][]float64{{{0.5}}, {{0.5}, {0.5}}}),
		"no cuts":             angularPlan(3, []int{2, 2}, nil),
		"short cut levels":    angularPlan(3, []int{2, 2}, [][][]float64{{{0.5}}}),
		"missing level cuts":  angularPlan(3, []int{2, 2}, [][][]float64{{{0.5}}, nil}),
		"unsorted cuts":       angularPlan(3, []int{3, 1}, [][][]float64{{{0.9, 0.2}}, nil}),
		"too few cells":       angularPlan(3, []int{2, 2}, [][][]float64{{{0.5}}, {{0.4}}}),
		"split product 2^62":  angularPlan(3, []int{1 << 31, 1 << 31}, [][][]float64{nil, nil}),
		"splits past the cap": angularPlan(3, []int{1 << 10, 1 << 11}, [][][]float64{nil, nil}),
	}
	// A plan arrives as JSON on every worker: a cut that is not an angle of
	// the non-negative orthant would poison the tan² table.
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-9, math.Nextafter(math.Pi/2, 2), 2} {
		bad[fmt.Sprintf("cut %g", c)] = angularPlan(3, []int{3, 1}, [][][]float64{{{0.2, c}}, nil})
	}
	for name, plan := range bad {
		if _, err := plan.Build(); err == nil || !strings.HasPrefix(err.Error(), "partition: ") {
			t.Errorf("%s: error %v, want a partition: error", name, err)
		}
	}
	for _, s := range []Scheme{Dimensional, Grid, Random} {
		mustBuild(t, good(s))
	}
	mustBuild(t, angularPlan(3, []int{3, 1}, [][][]float64{{{0, math.Pi / 2}}, nil})) // cuts at 0 and π/2
	// Assign keeps a stack pair per split angle: maxLevels of them, at any
	// dimension. More split angles are more than MaxPartitions sectors.
	for _, levels := range []int{maxLevels, maxLevels + 1} {
		d := maxLevels + 3
		splits, cuts := make([]int, d-1), make([][][]float64, d-1)
		cells := 1
		for i := range splits {
			splits[i] = 1
			if i < levels {
				splits[i] = 2
				cuts[i] = make([][]float64, cells)
				for j := range cuts[i] {
					cuts[i][j] = []float64{0.5}
				}
				cells *= 2
			}
		}
		_, err := angularPlan(d, splits, cuts).Build()
		if (err == nil) != (levels <= maxLevels) {
			t.Errorf("%d split angles: error %v", levels, err)
		}
	}
	p := mustBuild(t, angularPlan(3, []int{4, 2}, [][][]float64{
		{{0.3, 0.6, 0.9}},
		{{0.7}, {0.6}, {0.5}, {0.4}},
	}))
	if p.Partitions() != 8 {
		t.Errorf("partitions = %d, want 8", p.Partitions())
	}
	id, err := p.Assign(points.Point{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if id < 0 || id >= 8 {
		t.Errorf("id %d out of range", id)
	}
}

// FuzzPlanBuild: whatever JSON arrives as a plan, Build returns an error
// or a partitioner that routes every finite point of the plan's dimension —
// inside its box, far outside it, at the extremes of float64 — to an id in
// [0, Partitions()), and never panics.
func FuzzPlanBuild(f *testing.F) {
	data := qws.Dataset(10, 300, 4)
	for _, scheme := range []Scheme{Dimensional, Grid, Angular, Random} {
		for _, want := range []int{1, 8, 64} {
			plan, err := Fit(scheme, data, want)
			if err != nil {
				f.Fatal(err)
			}
			raw, err := json.Marshal(plan)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	f.Add([]byte(`{"scheme":"MR-Angle","min":[0,0],"max":[0,0],"partitions":4,"angular_splits":[4],"angular_cuts":[[[0,1e-9,1.5707963267948966]]]}`))
	f.Add([]byte(`{"scheme":"MR-Angle","min":[0,0,0],"max":[1,1,1],"partitions":4,"angular_splits":[2,2]}`))
	f.Add([]byte(`{"scheme":"MR-Grid","min":[-1e308,0],"max":[1e308,0],"partitions":1048576}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var plan Plan
		if json.Unmarshal(raw, &plan) != nil {
			return
		}
		part, err := plan.Build()
		if err != nil {
			if !strings.HasPrefix(err.Error(), "partition: ") {
				t.Fatalf("error %q, want a partition: error", err)
			}
			return
		}
		n := part.Partitions()
		if n < 1 || n > MaxPartitions {
			t.Fatalf("%d partitions", n)
		}
		rng := rand.New(rand.NewSource(int64(len(raw))))
		extremes := []float64{0, -0.0, 1, -1, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300, 1e300}
		for range 64 {
			pt := make(points.Point, len(plan.Min))
			for i := range pt {
				switch rng.Intn(3) {
				case 0:
					pt[i] = plan.Min[i] + rng.Float64()*(plan.Max[i]-plan.Min[i])
				case 1:
					pt[i] = plan.Min[i] + (rng.Float64()-0.5)*math.Ldexp(1, rng.Intn(64))
				default:
					pt[i] = extremes[rng.Intn(len(extremes))]
				}
				if math.IsInf(pt[i], 0) || math.IsNaN(pt[i]) {
					pt[i] = plan.Min[i]
				}
			}
			id, err := part.Assign(pt)
			if err != nil || id < 0 || id >= n {
				t.Fatalf("Assign(%v) = %d, %v; want an id in [0, %d)", pt, id, err, n)
			}
		}
	})
}

func TestFitAngularDegenerateData(t *testing.T) {
	// All points identical: all quantile cuts equal; every point must
	// still be assigned to a single valid sector.
	data := points.Set{{1, 2}, {1, 2}, {1, 2}, {1, 2}}
	p, err := New(Angular, data, 4)
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.Assign(points.Point{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if id < 0 || id >= p.Partitions() {
		t.Errorf("id %d out of range", id)
	}
	if _, err := New(Angular, points.Set{{1}}, 4); err == nil {
		t.Error("1-dim data accepted")
	}
	if _, err := New(Angular, nil, 4); err == nil {
		t.Error("empty data accepted")
	}
}

func TestFitAngularSampledQuality(t *testing.T) {
	data := qws.Dataset(17, 20000, 5)
	exact, _, err := fitExact(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := fitSampled(data, 8, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	exactCounts, err := Histogram(exact, data)
	if err != nil {
		t.Fatal(err)
	}
	sampledCounts, err := Histogram(sampled, data)
	if err != nil {
		t.Fatal(err)
	}
	re, rs := ImbalanceRatio(exactCounts), ImbalanceRatio(sampledCounts)
	// The sampled fit may be a little worse but must stay in the same
	// league (and far from the equal-width collapse).
	if rs > re*1.5+0.5 {
		t.Errorf("sampled imbalance %.2f vs exact %.2f", rs, re)
	}
	for id, c := range sampledCounts {
		if c == 0 {
			t.Errorf("sampled fit left sector %d empty", id)
		}
	}
}

func TestFitAngularSampledSmallData(t *testing.T) {
	// Sample size >= data size falls back to the exact fit.
	data := qws.Dataset(18, 300, 3)
	a, err := fitSampled(data, 4, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := fitExact(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range data[:100] {
		ia, err := a.Assign(pt)
		if err != nil {
			t.Fatal(err)
		}
		ib, err := b.Assign(pt)
		if err != nil {
			t.Fatal(err)
		}
		if ia != ib {
			t.Fatalf("fallback fit differs from exact fit for %v", pt)
		}
	}
}
