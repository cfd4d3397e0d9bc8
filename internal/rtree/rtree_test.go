package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/points"
	"repro/internal/skyline"
)

func randomSet(seed int64, n, d int) points.Set {
	rng := rand.New(rand.NewSource(seed))
	s := make(points.Set, n)
	for i := range s {
		p := make(points.Point, d)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		s[i] = p
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 16); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := New(points.Set{{1, 2}}, 1); err == nil {
		t.Error("fanout 1 accepted")
	}
	if _, err := New(points.Set{{1, 2}, {3}}, 8); err == nil {
		t.Error("ragged set accepted")
	}
}

func TestStructure(t *testing.T) {
	s := randomSet(1, 1000, 3)
	tr, err := New(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1000 {
		t.Errorf("Len = %d", tr.Len())
	}
	if h := tr.Height(); h < 2 || h > 5 {
		t.Errorf("Height = %d, implausible for 1000 points at fanout 16", h)
	}
	// Every point sits in exactly one leaf.
	var leaves points.Set
	var walk func(n *node)
	walk = func(n *node) {
		leaves = append(leaves, n.entries...)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
	if !sameMultiset(leaves, s) {
		t.Errorf("the leaves hold %d points, not the %d indexed", len(leaves), len(s))
	}
}

func TestMBRsContainChildren(t *testing.T) {
	s := randomSet(2, 500, 2)
	tr, err := New(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *node)
	walk = func(n *node) {
		if n.children == nil {
			for _, p := range n.entries {
				if !points.DominatesOrEqual(n.lo, p) || !points.DominatesOrEqual(p, n.hi) {
					t.Fatalf("point %v outside leaf MBR [%v, %v]", p, n.lo, n.hi)
				}
			}
			return
		}
		for _, c := range n.children {
			for i := range c.lo {
				if c.lo[i] < n.lo[i] || c.hi[i] > n.hi[i] {
					t.Fatalf("child MBR [%v,%v] escapes parent [%v,%v]", c.lo, c.hi, n.lo, n.hi)
				}
			}
			walk(c)
		}
	}
	walk(tr.root)
}

func TestBBSMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(4)
		n := 1 + rng.Intn(600)
		s := make(points.Set, n)
		for i := range s {
			p := make(points.Point, d)
			for j := range p {
				p[j] = float64(rng.Intn(12))
			}
			s[i] = p
		}
		tr, err := New(s, 2+rng.Intn(14))
		if err != nil {
			t.Fatal(err)
		}
		got := tr.Skyline(nil)
		want := skyline.Naive(s)
		if !sameMultiset(got, want) {
			t.Fatalf("trial %d d=%d n=%d: BBS %d, oracle %d", trial, d, n, len(got), len(want))
		}
	}
}

func sameMultiset(a, b points.Set) bool {
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

func TestBBSProgressiveOrder(t *testing.T) {
	s := randomSet(6, 2000, 3)
	tr, err := New(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []float64
	sky := tr.Skyline(func(p points.Point) {
		emitted = append(emitted, l1(p))
	})
	if len(emitted) != len(sky) {
		t.Fatalf("emitted %d, returned %d", len(emitted), len(sky))
	}
	if !sort.Float64sAreSorted(emitted) {
		t.Error("BBS emission not in nondecreasing L1 order")
	}
}

func TestBBSDuplicates(t *testing.T) {
	s := points.Set{{1, 1}, {1, 1}, {3, 3}, {0, 5}, {0, 5}}
	tr, err := New(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Skyline(nil)
	want := skyline.Naive(s)
	if !sameMultiset(got, want) {
		t.Errorf("BBS with duplicates: %v, want %v", got, want)
	}
}

func TestBBSVisitsFewEntriesOnCorrelatedData(t *testing.T) {
	// The point of BBS: on data with a small skyline it confirms the
	// skyline after inspecting a fraction of the points. Indirect check:
	// progressive emission completes with the first few L1 values far
	// below the dataset maximum.
	rng := rand.New(rand.NewSource(7))
	s := make(points.Set, 5000)
	for i := range s {
		base := rng.Float64() * 100
		s[i] = points.Point{base + rng.Float64()*5, base + rng.Float64()*5}
	}
	tr, err := New(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	sky := tr.Skyline(nil)
	if len(sky) > len(s)/20 {
		t.Fatalf("correlated skyline suspiciously large: %d", len(sky))
	}
	if !sameMultiset(sky, skyline.BNL(s)) {
		t.Error("BBS disagrees with BNL on correlated data")
	}
}

func BenchmarkBBS(b *testing.B) {
	s := randomSet(8, 20000, 4)
	tr, err := New(s, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Skyline(nil)
	}
}

func BenchmarkSTRBulkLoad(b *testing.B) {
	s := randomSet(9, 20000, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(s, 16); err != nil {
			b.Fatal(err)
		}
	}
}
