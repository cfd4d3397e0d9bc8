package partition

import (
	"testing"

	"repro/internal/points"
	"repro/internal/qws"
)

func TestFitAngularRadialStructure(t *testing.T) {
	data := qws.Dataset(27, 3000, 4)
	p, err := FitAngularRadial(data, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Partitions() != p.Sectors()*3 {
		t.Fatalf("partitions = %d, sectors = %d", p.Partitions(), p.Sectors())
	}
	counts, err := Histogram(p, data)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	empty := 0
	for _, c := range counts {
		total += c
		if c == 0 {
			empty++
		}
	}
	if total != len(data) {
		t.Errorf("histogram total %d, want %d", total, len(data))
	}
	// Equi-depth sectors × equi-depth shells: balance must be decent.
	if r := ImbalanceRatio(counts); r > 2.0 {
		t.Errorf("imbalance %.2f (%v)", r, counts)
	}
	if empty > 0 {
		t.Errorf("%d empty partitions", empty)
	}
}

func TestFitAngularRadialValidation(t *testing.T) {
	data := qws.Dataset(28, 100, 3)
	if _, err := FitAngularRadial(data, 4, 0); err == nil {
		t.Error("zero shells accepted")
	}
	if _, err := FitAngularRadial(nil, 4, 2); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := FitAngularRadial(points.Set{{1}}, 2, 2); err == nil {
		t.Error("1-dim data accepted")
	}
}

func TestAngularRadialShellsOrderedByRadius(t *testing.T) {
	// Points on one ray: larger radius must never land in a smaller shell.
	data := qws.Dataset(29, 2000, 3)
	p, err := FitAngularRadial(data, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	min, _ := data.Bounds()
	base := points.Point{min[0] + 2, min[1] + 3, min[2] + 1}
	prevShell := -1
	for _, k := range []float64{0.5, 1, 2, 4, 8, 16} {
		pt := make(points.Point, 3)
		for i := range pt {
			pt[i] = min[i] + (base[i]-min[i])*k
		}
		id, err := p.Assign(pt)
		if err != nil {
			t.Fatal(err)
		}
		shell := id % 4
		sector := id / 4
		if prevShell >= 0 && shell < prevShell {
			t.Fatalf("shell decreased along the ray: %d after %d", shell, prevShell)
		}
		prevShell = shell
		// All ray points share the sector (angles unchanged).
		wantSector, err := p.angular.Assign(pt)
		if err != nil {
			t.Fatal(err)
		}
		if sector != wantSector {
			t.Fatalf("sector %d, angular says %d", sector, wantSector)
		}
	}
}

func TestShellsOneEqualsAngular(t *testing.T) {
	data := qws.Dataset(30, 800, 3)
	hybrid, err := FitAngularRadial(data, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	pure, err := New(Angular, data, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range data[:200] {
		a, err := hybrid.Assign(pt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pure.Assign(pt)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("1-shell hybrid differs from pure angular for %v", pt)
		}
	}
}
