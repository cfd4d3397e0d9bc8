package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/qws"
	"repro/internal/skyline"
)

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
		if count[points.Key(p)]--; count[points.Key(p)] < 0 {
			return false
		}
	}
	return true
}

// tinyScale keeps experiment tests fast.
func tinyScale() Scale {
	return Scale{
		SmallN:  300,
		LargeN:  2000,
		Dims:    []int{2, 4},
		Nodes:   4,
		Workers: 4,
		Servers: []int{4, 16},
		Seed:    7,
		Repeats: 1,
	}
}

func TestFigure5(t *testing.T) {
	sc := tinyScale()
	rows, err := Figure5(context.Background(), sc, sc.SmallN)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sc.Dims) {
		t.Fatalf("%d rows, want %d", len(rows), len(sc.Dims))
	}
	for _, r := range rows {
		for _, m := range Methods {
			if r.Times[m] <= 0 {
				t.Errorf("dim %d %v: no time recorded", r.Dim, m)
			}
		}
	}
	var buf bytes.Buffer
	WriteFigure5(&buf, rows, "Figure 5 test")
	out := buf.String()
	if !strings.Contains(out, "MR-Angle") || !strings.Contains(out, "grid/angle") {
		t.Errorf("table rendering missing columns:\n%s", out)
	}
}

func TestFigure6(t *testing.T) {
	sc := tinyScale()
	rows, err := Figure6(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sc.Servers) {
		t.Fatalf("%d rows, want %d", len(rows), len(sc.Servers))
	}
	// More servers must not be substantially slower overall. At this tiny
	// scale fixed overhead dominates and over-partitioning can add a few
	// percent, so allow 10% wobble; the paper-scale decline is asserted in
	// the full benchmark run.
	if float64(rows[len(rows)-1].Total()) > float64(rows[0].Total())*1.10 {
		t.Errorf("total time grew >10%% with servers: %v -> %v", rows[0].Total(), rows[len(rows)-1].Total())
	}
	for _, r := range rows {
		if r.MapTime <= 0 || r.ReduceTime <= 0 {
			t.Errorf("servers %d: empty breakdown %+v", r.Servers, r)
		}
	}
	var buf bytes.Buffer
	WriteFigure6(&buf, rows, "Figure 6 test")
	if !strings.Contains(buf.String(), "servers") {
		t.Error("table rendering broken")
	}
}

func TestFigure7(t *testing.T) {
	sc := tinyScale()
	rows, err := Figure7(context.Background(), sc, sc.SmallN)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for _, m := range Methods {
			o := r.Optimality[m]
			if o < 0 || o > 1 {
				t.Errorf("dim %d %v: optimality %g out of [0,1]", r.Dim, m, o)
			}
		}
	}
	var buf bytes.Buffer
	WriteFigure7(&buf, rows, "Figure 7 test")
	if !strings.Contains(buf.String(), "dim") {
		t.Error("table rendering broken")
	}
}

func TestFigure7AngleWins(t *testing.T) {
	// The paper's qualitative claim: MR-Angle's local skyline optimality
	// beats MR-Dim and MR-Grid. Checked at moderate scale on the 2-D and
	// 4-D sweeps (averaged across dims to damp noise).
	sc := tinyScale()
	sc.SmallN = 1500
	rows, err := Figure7(context.Background(), sc, sc.SmallN)
	if err != nil {
		t.Fatal(err)
	}
	avg := map[partition.Scheme]float64{}
	for _, r := range rows {
		for _, m := range Methods {
			avg[m] += r.Optimality[m]
		}
	}
	if avg[partition.Angular] <= avg[partition.Grid] || avg[partition.Angular] <= avg[partition.Dimensional] {
		t.Errorf("MR-Angle optimality %g not above grid %g / dim %g",
			avg[partition.Angular], avg[partition.Grid], avg[partition.Dimensional])
	}
}

func TestTheoremTable(t *testing.T) {
	rows := TheoremTable(50000, 1)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Gap < r.Bound-1e-9 {
			t.Errorf("x=%g: gap %g below bound %g", r.X, r.Gap, r.Bound)
		}
		if diff := r.DAngle - r.MCAngle; diff > 0.02 || diff < -0.02 {
			t.Errorf("x=%g: analytic angle %g vs MC %g", r.X, r.DAngle, r.MCAngle)
		}
		if diff := r.DGrid - r.MCGrid; diff > 0.02 || diff < -0.02 {
			t.Errorf("x=%g: analytic grid %g vs MC %g", r.X, r.DGrid, r.MCGrid)
		}
	}
	var buf bytes.Buffer
	WriteTheoremTable(&buf, rows, "Theorems")
	if !strings.Contains(buf.String(), "D_angle") {
		t.Error("table rendering broken")
	}
}

// TestAblations holds every row of the ablation table to the oracle: each
// row's global skyline is the sequential SFS skyline of the data as a
// multiset; the rows that change only how Job 1 computes a partition's
// skyline — no combiner, another kernel — reach the default row's local
// skylines (their total, and Eq. (5)'s survivors per partition); and the
// combiner is what cuts the shuffle.
func TestAblations(t *testing.T) {
	sc := tinyScale()
	const n, d = 1500, 3
	data := qws.Dataset(sc.Seed, n, d)
	want := skyline.SFS(data)
	cfgs, err := ablations(data, sc)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		localTotal int
		survivors  map[int]int
		shuffled   int64
	}
	got := make(map[string]outcome)
	for _, c := range cfgs {
		global, stats, err := c.run(context.Background(), data, sc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !sameMultiset(global, want) {
			t.Errorf("%s: global skyline has %d points, sequential SFS %d", c.name, len(global), len(want))
		}
		got[c.name] = outcome{stats.LocalSkylineTotal(), metrics.GlobalSurvivors(stats.LocalSkylines, global), stats.Counters["mr.shuffle.records"]}
	}
	base := got["MR-Angle (BNL, combiner)"]
	for _, name := range []string{"MR-Angle no combiner", "MR-Angle SFS kernel", "MR-Angle D&C kernel", "MR-Angle BBS kernel"} {
		row, ok := got[name]
		if !ok || row.localTotal != base.localTotal || !reflect.DeepEqual(row.survivors, base.survivors) {
			t.Errorf("%s: %d local skyline points, Eq. (5) survivors %v; the default row has %d and %v",
				name, row.localTotal, row.survivors, base.localTotal, base.survivors)
		}
	}
	if without := got["MR-Angle no combiner"].shuffled; without <= base.shuffled {
		t.Errorf("no combiner shuffled %d records, the default %d: want strictly more", without, base.shuffled)
	}

	rows, err := Ablations(context.Background(), sc, n, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || len(rows) != len(cfgs) {
		t.Fatalf("%d ablation rows of %d configurations, want 10", len(rows), len(cfgs))
	}
	for i, r := range rows {
		if r.Name != cfgs[i].name || r.GlobalSkyline != len(want) {
			t.Errorf("row %d is %q with a skyline of %d; want %q and %d", i, r.Name, r.GlobalSkyline, cfgs[i].name, len(want))
		}
	}
	var buf bytes.Buffer
	WriteAblations(&buf, rows, "Ablations")
	if !strings.Contains(buf.String(), "configuration") {
		t.Error("table rendering broken")
	}
}

func TestScalesSane(t *testing.T) {
	for _, sc := range []Scale{FullScale(), QuickScale()} {
		if sc.SmallN <= 0 || sc.LargeN <= sc.SmallN {
			t.Errorf("bad cardinalities: %+v", sc)
		}
		if len(sc.Dims) == 0 || len(sc.Servers) == 0 {
			t.Errorf("empty sweeps: %+v", sc)
		}
		if sc.Dims[len(sc.Dims)-1] != 10 {
			t.Errorf("dimension sweep must end at the paper's 10: %v", sc.Dims)
		}
	}
}
