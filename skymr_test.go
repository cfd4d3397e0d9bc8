package skymr

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/points"
	"repro/internal/skyline"
)

func uniform(seed int64, n, d int) Set {
	rng := rand.New(rand.NewSource(seed))
	s := make(Set, n)
	for i := range s {
		p := make(Point, d)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		s[i] = p
	}
	return s
}

func sameMultiset(a, b Set) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[string]int{}
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

// TestOptionSurface pins the number of independently settable values on
// the public entry point. A new field has to edit this count, and the
// simplicity guide's rule for one applies: two callers or workloads that
// exist today (tests and examples do not count) need different values,
// and the code cannot work the value out from its inputs or a measurement
// it already takes.
func TestOptionSurface(t *testing.T) {
	if n := reflect.TypeOf(Options{}).NumField(); n != 6 {
		t.Fatalf("skymr.Options has %d fields, want 6", n)
	}
}

func TestComputeAllMethodsMatchSequential(t *testing.T) {
	data := uniform(1, 1000, 3)
	want := Skyline(data)
	for _, m := range []Method{Dim, Grid, Angle, Random} {
		res, err := Compute(context.Background(), data, Options{Method: m, Nodes: 4})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !sameMultiset(res.Skyline, want) {
			t.Errorf("%v: %d skyline points, sequential %d", m, len(res.Skyline), len(want))
		}
		if res.Method != m {
			t.Errorf("result method %v, want %v", res.Method, m)
		}
		if res.Timing.Total <= 0 {
			t.Errorf("%v: no timing", m)
		}
		if res.Counters["mr.map.records.in"] == 0 {
			t.Errorf("%v: no counters", m)
		}
	}
}

func TestMethodsAndStrings(t *testing.T) {
	if len(Methods()) != 3 {
		t.Error("Methods() must list the paper's three")
	}
	if Dim.String() != "MR-Dim" || Grid.String() != "MR-Grid" || Angle.String() != "MR-Angle" {
		t.Error("unexpected method names")
	}
	if _, err := Compute(context.Background(), uniform(2, 10, 2), Options{Method: Method(99)}); err == nil {
		t.Error("unknown method accepted")
	}
	for flag, want := range map[string]Method{"angle": Angle, "grid": Grid, "dim": Dim, "random": Random} {
		if got, err := ParseMethod(flag); err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", flag, got, err, want)
		}
	}
	if _, err := ParseMethod("hexagon"); err == nil || !strings.Contains(err.Error(), "angle, grid, dim or random") {
		t.Errorf("ParseMethod(hexagon): %v, want an error naming the valid values", err)
	}
}

func TestResultOptimality(t *testing.T) {
	data := GenerateQWS(4, 2000, 4)
	res, err := Compute(context.Background(), data, Options{Method: Angle})
	if err != nil {
		t.Fatal(err)
	}
	o := res.Optimality()
	if o <= 0 || o > 1 {
		t.Errorf("optimality = %g, want (0, 1]", o)
	}
	if res.LocalSkylineTotal() < len(res.Skyline) {
		t.Errorf("local skyline total %d below global %d", res.LocalSkylineTotal(), len(res.Skyline))
	}
}

func TestGenerateQWS(t *testing.T) {
	data := GenerateQWS(5, 1000, 6)
	if len(data) != 1000 || data.Dim() != 6 {
		t.Fatalf("shape %dx%d", len(data), data.Dim())
	}
	names := QWSAttributeNames(6)
	if len(names) != 6 || names[0] != "ResponseTime" {
		t.Errorf("names = %v", names)
	}
	// Extension path.
	big := GenerateQWS(5, 12000, 3)
	if len(big) != 12000 {
		t.Fatalf("extended len %d", len(big))
	}
}

func TestDominatesExported(t *testing.T) {
	if !Dominates(Point{1, 1}, Point{2, 2}) || Dominates(Point{2, 2}, Point{1, 1}) {
		t.Error("Dominates broken")
	}
}

func TestCSVRoundTripExported(t *testing.T) {
	data := Set{{1, 2}, {3, 4}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, data, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	got, header, err := ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(header) != 2 || !sameMultiset(got, data) {
		t.Errorf("round trip: %v %v", header, got)
	}
}

func TestIndexIncremental(t *testing.T) {
	data := uniform(6, 400, 2)
	ix, err := BuildIndex(context.Background(), data, Options{Method: Angle})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(ix.Global(), Skyline(data)) {
		t.Fatal("initial index wrong")
	}
	pid, in, err := ix.Add(Point{0.0001, 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	if !in {
		t.Error("dominating point rejected from skyline")
	}
	if pid < 0 {
		t.Errorf("partition id %d", pid)
	}
	if ls := ix.LocalSkyline(pid); len(ls) == 0 {
		t.Error("local skyline of touched partition empty")
	}
	if ix.Size() == 0 {
		t.Error("index empty")
	}
}

func TestComputeGridPruningVisible(t *testing.T) {
	data := uniform(7, 3000, 2)
	res, err := Compute(context.Background(), data, Options{Method: Grid, Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.PrunedPartitions == 0 {
		t.Error("expected pruned cells on dense 2-D data")
	}
	if !sameMultiset(res.Skyline, Skyline(data)) {
		t.Error("pruning changed the skyline")
	}
}

// TestSpillOption: SpillDir only names where budgeted reducers overflow, so
// an unbudgeted job given one returns the same skyline.
func TestSpillOption(t *testing.T) {
	data := uniform(8, 500, 3)
	res, err := Compute(context.Background(), data, Options{Method: Angle, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(res.Skyline, Skyline(data)) {
		t.Error("a SpillDir changed the result")
	}
}

func TestPublicSequentialMatchesOracle(t *testing.T) {
	data := uniform(9, 700, 5)
	if !sameMultiset(Skyline(data), skyline.Naive(data)) {
		t.Error("Skyline() disagrees with oracle")
	}
}
