package partition

import (
	"math"
	"strings"
	"testing"

	"repro/internal/points"
	"repro/internal/qws"
)

func TestFitAngularBalancesRealisticData(t *testing.T) {
	// The motivating failure: high-dimensional QoS data concentrates in a
	// narrow angle band, leaving most equal-width sectors empty. The
	// fitted (equi-depth) partitioner must occupy every sector.
	data := qws.Dataset(7, 4000, 6)
	fitted, err := FitAngular(data, 8)
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
	equal, err := NewAngular(min, data.Dim(), 8)
	if err != nil {
		t.Fatal(err)
	}
	eqCounts, err := Histogram(equal, data)
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
	fitted, err := FitAngular(data, 8)
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

func TestAngularCutsRoundTrip(t *testing.T) {
	data := qws.Dataset(9, 2000, 5)
	fitted, err := FitAngular(data, 16)
	if err != nil {
		t.Fatal(err)
	}
	min, _ := data.Bounds()
	rebuilt, err := NewAngularWithCuts(min, fitted.Splits(), fitted.Cuts())
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Partitions() != fitted.Partitions() {
		t.Fatalf("partitions %d vs %d", rebuilt.Partitions(), fitted.Partitions())
	}
	for _, pt := range data[:500] {
		a, err := fitted.Assign(pt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rebuilt.Assign(pt)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("assignment mismatch for %v: %d vs %d", pt, a, b)
		}
	}
	// Cuts must be deep copies.
	cuts := fitted.Cuts()
	if cuts[0] != nil && len(cuts[0][0]) > 0 {
		cuts[0][0][0] = math.Pi
		if fitted.Cuts()[0][0][0] == math.Pi {
			t.Error("Cuts aliases internal state")
		}
	}
}

func TestNewAngularWithCutsValidation(t *testing.T) {
	offset := points.Point{0, 0, 0}
	if _, err := NewAngularWithCuts(points.Point{0}, []int{2}, nil); err == nil {
		t.Error("1-dim offset accepted")
	}
	if _, err := NewAngularWithCuts(offset, []int{2}, nil); err == nil {
		t.Error("wrong split count accepted")
	}
	if _, err := NewAngularWithCuts(offset, []int{2, 0}, nil); err == nil {
		t.Error("zero split accepted")
	}
	if _, err := NewAngularWithCuts(offset, []int{2, 2}, [][][]float64{{{0.5}}}); err == nil {
		t.Error("short cut level list accepted")
	}
	if _, err := NewAngularWithCuts(offset, []int{2, 2}, [][][]float64{{{0.5}}, nil}); err == nil {
		t.Error("missing cuts for split>1 accepted")
	}
	if _, err := NewAngularWithCuts(offset, []int{3, 1}, [][][]float64{{{0.9, 0.2}}, nil}); err == nil {
		t.Error("unsorted cuts accepted")
	}
	if _, err := NewAngularWithCuts(offset, []int{2, 2}, [][][]float64{{{0.5}}, {{0.4}}}); err == nil {
		t.Error("level with too few cells accepted")
	}
	// A spec arrives as JSON on every worker: a cut that is not an angle
	// of the non-negative orthant would poison the tan² table.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-9, math.Nextafter(math.Pi/2, 2), 2} {
		_, err := NewAngularWithCuts(offset, []int{3, 1}, [][][]float64{{{0.2, bad}}, nil})
		if err == nil || !strings.HasPrefix(err.Error(), "partition: ") {
			t.Errorf("cut %g: error %v, want a partition: error", bad, err)
		}
	}
	if _, err := NewAngularWithCuts(offset, []int{3, 1}, [][][]float64{{{0, math.Pi / 2}}, nil}); err != nil {
		t.Errorf("cuts at 0 and π/2 rejected: %v", err)
	}
	p, err := NewAngularWithCuts(offset, []int{4, 2}, [][][]float64{
		{{0.3, 0.6, 0.9}},
		{{0.7}, {0.6}, {0.5}, {0.4}},
	})
	if err != nil {
		t.Fatal(err)
	}
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

func TestFitAngularDegenerateData(t *testing.T) {
	// All points identical: all quantile cuts equal; every point must
	// still be assigned to a single valid sector.
	data := points.Set{{1, 2}, {1, 2}, {1, 2}, {1, 2}}
	p, err := FitAngular(data, 4)
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
	if _, err := FitAngular(points.Set{{1}}, 4); err == nil {
		t.Error("1-dim data accepted")
	}
	if _, err := FitAngular(nil, 4); err == nil {
		t.Error("empty data accepted")
	}
}

func TestFitAngularSampledQuality(t *testing.T) {
	data := qws.Dataset(17, 20000, 5)
	exact, err := FitAngular(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := FitAngularSampled(data, 8, 2000, 1)
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
	a, err := FitAngularSampled(data, 4, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitAngular(data, 4)
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
	if _, err := FitAngularSampled(nil, 4, 100, 1); err == nil {
		t.Error("empty data accepted")
	}
}
