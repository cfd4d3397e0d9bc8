package skyline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/points"
)

// filterOracle is the classic sequential operator the filter must agree
// with: BNL for band 0, Skyband(·, k) for band k.
func filterOracle(t testing.TB, rows points.Set, band int) points.Set {
	t.Helper()
	if band == 0 {
		return BNL(rows)
	}
	want, err := Skyband(rows, band)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// cut deals rows into n blocks of uneven lengths (some empty), in order.
func cut(rows [][]float64, n int) []*points.Block {
	blocks := make([]*points.Block, n)
	for i := range blocks {
		blocks[i] = points.NewBlock(0, 0)
	}
	for i, row := range rows {
		blocks[i*n/max(len(rows), 1)].AppendRow(row)
	}
	return blocks
}

// merged is the merge of rows dealt into nBlocks blocks, sorted on builders
// goroutines and cut into groups at ends(sorted), each group's task fed the
// rows streamed past it in blocks of piece rows: the groups' survivors in
// group order, and the sort they were cut from.
func merged(t testing.TB, rows [][]float64, nBlocks, builders, piece, band int, ends func(*Sorted) []int) (points.Set, *Sorted) {
	t.Helper()
	d := len(rows[0])
	s, err := Sort(cut(rows, nBlocks), d, builders)
	if err != nil {
		t.Fatal(err)
	}
	var out points.Set
	at := ends(s)
	for g, hi := range at {
		lo := 0
		if g > 0 {
			lo = at[g-1]
		}
		kept, n, peak, err := MergeTask(stream(s.Input(at, g, piece)), d, band)
		if err != nil {
			t.Fatal(err)
		}
		if n != hi-lo || peak < LayoutBytes(n, d) || LayoutBytes(n, d) <= int64(n)*int64(d)*8 {
			t.Fatalf("group %d of %d rows: a task of %d rows, a peak of %d bytes (LayoutBytes %d)", g, hi-lo, n, peak, LayoutBytes(n, d))
		}
		if kept.Dim() != d || !sizedOnce(kept) {
			t.Fatalf("group %d: %d survivors of dimension %d in a block with room past them", g, kept.Len(), kept.Dim())
		}
		out = append(out, kept.ToSet()...)
	}
	return out, s
}

// sizedOnce reports whether blk's backing array has no room past its rows
// — capacity equal to length — by whether one more row moves them.
func sizedOnce(blk *points.Block) bool {
	n := blk.Len()
	if n == 0 {
		return true
	}
	defer blk.Truncate(n)
	first := &blk.Row(0)[0]
	blk.AppendRow(blk.Row(0))
	return &blk.Row(0)[0] != first
}

// aGroupEach cuts every row into a group of its own.
func aGroupEach(s *Sorted) []int {
	ends := make([]int, s.Rows.Len())
	for j := range ends {
		ends[j] = j + 1
	}
	return ends
}

// cutInto is Sorted.Cut(k).
func cutInto(k int) func(*Sorted) []int { return func(s *Sorted) []int { return s.Cut(k) } }

// checkFilter merges rows (see merged) and requires the oracle's rows, in
// the merge's order: the sorted rows the oracle keeps, as they come.
func checkFilter(t testing.TB, rows [][]float64, nBlocks, builders, piece, band int, ends func(*Sorted) []int) {
	t.Helper()
	set := make(points.Set, len(rows))
	for i, row := range rows {
		set[i] = row
	}
	want := filterOracle(t, set, band)
	kept := make(map[string]bool, len(want))
	for _, p := range want {
		kept[points.Key(p)] = true
	}
	got, s := merged(t, rows, nBlocks, builders, piece, band, ends)
	var inOrder points.Set
	for j := 0; j < s.Rows.Len(); j++ {
		if kept[points.Key(s.Rows.Row(j))] {
			inOrder = append(inOrder, s.Rows.Row(j))
		}
	}
	if !sameMultiset(got, want) || !slices.EqualFunc(got, inOrder, func(a, b points.Point) bool { return slices.Equal(a, b) }) {
		t.Fatalf("band %d, %d blocks, %d groups: %d rows survive, oracle %d, or not in the merge's order", band, nBlocks, len(ends(s)), len(got), len(want))
	}
}

// TestFilterMatchesOracle: the cases the merge could get wrong, each for
// the skyline and bands 1–3: one group from one input block sorted by one
// builder, three groups of equal pair work from eight blocks sorted by
// three, fed in pieces of two rows, and a group a row.
func TestFilterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	big := math.MaxFloat64 / 2
	cases := map[string][][]float64{
		"duplicates, all retained":       {{1, 2}, {1, 2}, {2, 1}, {2, 2}, {1, 2}, {2, 2}},
		"equal sums, one dominates":      {{1e16, 0}, {1e16, 1}, {1e16, 1}, {0, 1e16}, {1, 1e16}},
		"equal sums, the dominator last": {{1e16, 1}, {0, 1e16}, {1e16, 1}, {1e16, 0}},
		"one row":                        {{3, 1, 4}},
		"sums overflow to +Inf":          {{big, big, big}, {big, big, 1}, {big, big, big}, {1, big, big}, {big, 1, big}, {big, big / 2, big}},
		"negative and positive, wide":    {{-big, big}, {big, -big}, {-big, -big}, {0, 0}, {-big, 0}},
		"constant column":                windowStream(rng, 1, 400, 5, 2),
		"every column constant":          windowStream(rng, 0, 50, 1, 0),
		"integer grid, ties everywhere":  windowStream(rng, 0, 600, 4, -1),
		"anti-diagonal":                  windowStream(rng, 2, 500, 2, -1),
	}
	// Rows that agree on twelve leading dimensions and differ only past
	// them: every leading bitmap is empty, and sums tie by the hundred.
	constLead := make([][]float64, 300)
	for i := range constLead {
		constLead[i] = make([]float64, 14)
		constLead[i][12], constLead[i][13] = float64(rng.Intn(9)), float64(rng.Intn(9))
	}
	cases["twelve constant leading columns"] = constLead
	// The corners of the 6-cube, four rows each, and a few more at the
	// origin: every threshold is 0 or 1, so each dimension has two levels
	// and every level pattern occurs.
	corners := make([][]float64, 8, 8+4*64)
	for i := range corners {
		corners[i] = make([]float64, 6)
	}
	for m := 0; m < 64; m++ {
		row := make([]float64, 6)
		for i := range row {
			row[i] = float64(m >> i & 1)
		}
		corners = append(corners, row, row, row, row)
	}
	cases["every corner of the 6-cube"] = corners
	for _, d := range []int{1, 2, 3, 7, 12, 13, 16, 33, 64, 65} {
		cases[fmt.Sprintf("uniform d=%d", d)] = windowStream(rng, 1, 300, d, -1)
		cases[fmt.Sprintf("grid d=%d", d)] = windowStream(rng, 0, 300, d, -1)
	}
	for name, rows := range cases {
		t.Run(name, func(t *testing.T) {
			for band := 0; band <= 3; band++ {
				checkFilter(t, rows, 1, 1, 0, band, cutInto(1))
				checkFilter(t, rows, 8, 3, 2, band, cutInto(3))
				checkFilter(t, rows, 3, 2, 1, band, aGroupEach)
			}
		})
	}
}

// TestFilterBitmapsAreTheSignatureTest: the rows a kill probe leaves for
// the coordinate test are exactly those a row-by-row scan of levels and
// sums leaves — no level below the probe's and a sum no smaller — at
// dimensions either side of one signature word and row counts either side
// of one bitmap word, and the kill walk tests exactly those rows.
func TestFilterBitmapsAreTheSignatureTest(t *testing.T) {
	rng := rand.New(rand.NewSource(244))
	for _, d := range []int{2, 6, 10, 64, 65} {
		for _, n := range []int{1, 63, 64, 65, 129, 3000} {
			rows := windowStream(rng, n%3, n, d, -1)
			s, err := Sort(cut(rows, 3), d, 1)
			if err != nil {
				t.Fatal(err)
			}
			g, err := newGroup(s.Levels, s.Rows, math.MaxInt32) // no row dies: every walk runs to its end
			if err != nil {
				t.Fatal(err)
			}
			levels := func(p []float64) []int {
				lv := make([]int, d)
				for i, v := range p {
					for _, thr := range g.thr[i*g.levels : (i+1)*g.levels] {
						if v > thr {
							lv[i]++
						}
					}
				}
				return lv
			}
			layout := make([][]int, g.rows.Len())
			for j := range layout {
				layout[j] = levels(g.rows.Row(j))
			}
			probes := append(slices.Clone(rows[:min(n, 40)]), windowStream(rng, 1, 10, d, -1)...)
			for _, p := range probes {
				lp, sp := levels(p), rowSum(p)
				var over []int
				for j, lq := range layout {
					above := true
					for i := range lq {
						above = above && lq[i] >= lp[i]
					}
					if above && g.sums[j] >= sp {
						over = append(over, j)
					}
				}
				if got := probed(g, sp, p); !slices.Equal(got, over) {
					t.Fatalf("d=%d n=%d: the kill probe keeps rows %v, the scan %v", d, n, got, over)
				}
				if tests := g.kills(p, nil); tests != int64(len(over)) {
					t.Fatalf("d=%d n=%d: the kill walk tested %d rows, its probe keeps %d", d, n, tests, len(over))
				}
			}
		}
	}
}

// probed lists the layout rows of g the kill probe of p, whose sum is sp,
// keeps, in ascending order.
func probed(g *group, sp float64, p []float64) []int {
	var rows []int
	lo, offs := g.dominated(p, sp, nil)
	for w := lo / 64; w*64 < len(g.sums); w += 4 {
		a0, a1, a2, a3 := g.block(lo, offs, w)
		for k, word := range [4]uint64{a0, a1, a2, a3} {
			for j := 0; j < 64; j++ {
				if word>>j&1 == 1 {
					rows = append(rows, (w+k)*64+j)
				}
			}
		}
	}
	return rows
}

// TestFilterPrunesPastSixtyFourDimensions: at d=65, where the window keeps
// no signature, every dimension keeps its median level, so rows that tie on
// their twelve leading columns are still told apart by the other 53, and a
// row streamed past the group tests a handful of rows, not the half of the
// set whose sum is above its own.
func TestFilterPrunesPastSixtyFourDimensions(t *testing.T) {
	const n, d = 2000, 65
	rows := windowStream(rand.New(rand.NewSource(245)), 1, n, d, -1)
	set := make(points.Set, n)
	for j, p := range rows {
		for i := 0; i < 12; i++ {
			p[i] = 1
		}
		set[j] = p
	}
	t0 := DominanceTests()
	kept, _ := merged(t, rows, 1, 1, 0, 0, cutInto(1))
	perRow := float64(DominanceTests()-t0) / n
	if perRow > n/16 {
		t.Fatalf("d=%d: %.1f coordinate tests a row, want well below n/2 = %d", d, perRow, n/2)
	}
	if want := len(BNL(set)); len(kept) != want {
		t.Fatalf("d=%d: %d survivors, oracle %d", d, len(kept), want)
	}
	t.Logf("d=%d: %.2f tests a row, %d survivors of %d", d, perRow, len(kept), n)
}

// TestFilterRejects: a set no merge can sort, and a task input no sort
// could have cut, are ErrCandidates.
func TestFilterRejects(t *testing.T) {
	two, _ := points.BlockOf(points.Set{{1, 2}, {2, 1}})
	three, _ := points.BlockOf(points.Set{{1, 2, 3}})
	for name, blocks := range map[string][]*points.Block{
		"no blocks":        nil,
		"only empty ones":  {points.NewBlock(0, 0), points.NewBlock(4, 0)},
		"mixed dimensions": {two, points.NewBlock(0, 0), three},
	} {
		if s, err := Sort(blocks, 2, 1); !errors.Is(err, ErrCandidates) || s != nil {
			t.Errorf("%s: Sort returned %v, %v; want ErrCandidates", name, s, err)
		}
	}
	s, err := Sort([]*points.Block{two}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	descending, _ := points.BlockOf(points.Set{{5, 5}, {4, 4}, {3, 3}, {2, 2}, {1, 1}})
	for name, in := range map[string][]*points.Block{
		"nothing":                {},
		"no group":               {s.Levels},
		"levels of other counts": {s.Rows, s.Rows},
		"levels descending":      {descending, s.Rows},
		"a group of 3 dims":      {s.Levels, three},
		"an empty group":         {s.Levels, points.NewBlock(2, 0)},
	} {
		if _, _, _, err := MergeTask(stream(in), 2, 0); !errors.Is(err, ErrCandidates) {
			t.Errorf("%s: MergeTask returned %v; want ErrCandidates", name, err)
		}
	}
}

// TestKillRejectsOtherDimensions: a block streamed past a layout of another
// dimension is ErrCandidates, and counts nothing.
func TestKillRejectsOtherDimensions(t *testing.T) {
	two, _ := points.BlockOf(points.Set{{2, 2}, {3, 1}})
	three, _ := points.BlockOf(points.Set{{1, 1, 1}})
	s, err := Sort([]*points.Block{two}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGroup(s.Levels, s.Rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.kill(three); !errors.Is(err, ErrCandidates) || !strings.Contains(err.Error(), "3-dimensional rows streamed past a 2-dimensional layout") {
		t.Errorf("kill of 3-dimensional rows: %v, want ErrCandidates naming both dimensions", err)
	}
	if err := g.kill(points.NewBlock(5, 0)); err != nil {
		t.Errorf("kill of an empty block: %v", err)
	}
	if !slices.Equal(g.dominators, []int32{0, 0}) {
		t.Errorf("dominators %v after refused blocks, want none counted", g.dominators)
	}
}

// sortOf copies everything a sort holds; layoutOf everything a group does.
func sortOf(s *Sorted) []any { return []any{s.Rows.Clone(), s.Levels.Clone(), slices.Clone(s.sums)} }

func layoutOf(g *group) []any {
	return []any{g.rows.Clone(), slices.Clone(g.sums), slices.Clone(g.thr), g.levels, g.words, slices.Clone(g.ge), g.dies, slices.Clone(g.dominators)}
}

// TestFilterLayoutIsAFunctionOfRows: the merge's order and levels are a
// function of the row sequence alone — however it is cut into blocks, and
// on however many goroutines it is sorted — duplicates and equal sums
// included, so every executor cuts the same groups; and a group laid out
// from rows in another order sorts them into the same layout.
func TestFilterLayoutIsAFunctionOfRows(t *testing.T) {
	rng := rand.New(rand.NewSource(242))
	for _, d := range []int{2, 6, 10, 65} {
		rows := windowStream(rng, 0, 3000, d, -1) // the grid: thousands of equal sums
		rows = append(rows, rows[:200]...)
		ref, err := Sort(cut(rows, 1), d, 1)
		if err != nil {
			t.Fatal(err)
		}
		refGroup, err := newGroup(ref.Levels, ref.Rows, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, nBlocks := range []int{1, 2, 9} {
			for _, builders := range []int{1, 2, 8} {
				s, err := Sort(cut(rows, nBlocks), d, builders)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sortOf(s), sortOf(ref)) {
					t.Fatalf("d=%d: a sort of %d blocks by %d builders differs from one builder's of one block", d, nBlocks, builders)
				}
			}
		}
		unsorted, err := newGroup(ref.Levels, cut(rows, 1)[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(layoutOf(unsorted), layoutOf(refGroup)) {
			t.Fatalf("d=%d: a group laid out from the input order differs from one laid out from the merge's", d)
		}
	}
}

// TestFilterSharedReadOnly: every task of an in-process merge reads one
// sort — its group, the rows it streams and the levels are views of it —
// so the tasks must only read it. Eight goroutines each run every group's
// task, from a different first group, and keep the rows one goroutine
// kept; under -race a write is reported, and without it the sort is
// compared before and after.
func TestFilterSharedReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(243))
	rows := windowStream(rng, 2, 4000, 5, -1)
	s, err := Sort(cut(rows, 4), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := sortOf(s)
	ends := s.Cut(8)
	task := func(g int) int {
		kept, _, _, err := MergeTask(stream(s.Input(ends, g, 100)), 5, 0)
		if err != nil {
			t.Error(err)
			return 0
		}
		return kept.Len()
	}
	want := make([]int, len(ends))
	total := 0
	for g := range ends {
		want[g] = task(g)
		total += want[g]
	}
	if total == 0 || total == len(rows) {
		t.Fatalf("%d of %d rows survive: the stream no longer has both kinds", total, len(rows))
	}
	var wg sync.WaitGroup
	for first := 0; first < 8; first++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ends {
				g := (first + k) % len(ends)
				if got := task(g); got != want[g] {
					t.Errorf("group %d kept %d rows beside the other tasks, %d alone", g, got, want[g])
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(sortOf(s), before) {
		t.Fatal("merging changed the sort")
	}
}

// FuzzFilterMatchesReference drives the merge with fuzz-chosen geometry —
// stream kind, size, dimension, a constant column, the band, the number of
// input blocks, the number of goroutines that sort them and the number of
// groups, cut at sum splitters drawn from the seed, each killed only by the
// rows at or below its largest sum, in pieces of up to three rows — against
// the classic oracle, rows and order; and, for the skyline, the merge on
// that many goroutines as ParallelBlock runs it.
func FuzzFilterMatchesReference(f *testing.F) {
	f.Add(int64(1), 100, 2, 0, -1, 0, 1, 1, 1)
	f.Add(int64(2), 400, 10, 2, 3, 1, 8, 2, 5)
	f.Add(int64(3), 300, 22, 1, -1, 3, 3, 3, 2)
	f.Add(int64(4), 200, 65, 2, 0, 2, 50, 16, 7)
	f.Add(int64(5), 3, 6, 0, -1, 0, 5, 8, 3)
	f.Add(int64(6), 65, 3, 3, -1, 0, 2, 2, 2)   // all rows equal
	f.Add(int64(7), 200, 4, 5, -1, 1, 3, 2, 3)  // sums tie at every probe's cut, and dominate there
	f.Add(int64(8), 150, 5, 4, -1, 0, 4, 3, 4)  // ±0 coordinates
	f.Add(int64(9), 64, 64, 1, -1, 0, 2, 2, 1)  // d=64, one bitmap word exactly
	f.Add(int64(10), 65, 65, 0, -1, 2, 3, 4, 2) // d=65, a row into the second word
	f.Add(int64(11), 200, 4, 6, -1, 0, 3, 2, 8) // every sum equal: every group reaches the last row
	f.Add(int64(12), 120, 3, 3, -1, 0, 2, 2, 9) // every splitter between two copies of one row
	f.Add(int64(13), 40, 2, 5, -1, 0, 3, 2, 40) // (1e16, 0) and (1e16, 1) in groups of their own
	f.Add(int64(14), 300, 4, 1, -1, 2, 4, 2, 6) // band 2: a row skipped dead had 2 dominators
	f.Add(int64(15), 60, 3, 5, -1, 1, 2, 1, 9)  // band 1 across the rounding ties
	f.Fuzz(func(t *testing.T, seed int64, n, d, kind, constCol, band, nBlocks, builders, groups int) {
		if n < 1 || n > 500 || d < 1 || d > 70 || kind < 0 || band < 0 || band > 4 || nBlocks < 1 || nBlocks > 64 || builders < 0 || builders > 16 || groups < 1 || groups > 64 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		rows := filterStream(rng, kind, n, d, constCol)
		ends := rng.Perm(n - 1)[:min(groups, n)-1]
		for i := range ends {
			ends[i]++ // a splitter in [1, n)
		}
		slices.Sort(ends)
		ends = append(ends, n)
		checkFilter(t, rows, nBlocks, builders, rng.Intn(4), band, func(*Sorted) []int { return ends })
		if band == 0 {
			want, _ := merged(t, rows, nBlocks, 1, 0, 0, cutInto(1))
			got, err := mergeBlocks(context.Background(), cut(rows, nBlocks), d, max(builders, 1))
			if err != nil || !slices.EqualFunc(got.ToSet(), want, func(a, b points.Point) bool { return slices.Equal(a, b) }) {
				t.Fatalf("%d goroutines: %v, or other rows than one group's", builders, err)
			}
		}
	})
}

// filterStream is windowStream for kinds 0–2 (mod 7), and four streams
// that aim at the merge's edges: 3, every row equal; 4, coordinates drawn
// from −1, −0, +0 and 1; 5, a first coordinate so large that the rest is
// lost in every sum, so that rows dominate at a sum tie; 6, integer rows
// whose last coordinate makes every sum 2(d−1), so that no row dominates
// another and every sum ties.
func filterStream(rng *rand.Rand, kind, n, d, constCol int) [][]float64 {
	if kind%7 < 3 {
		return windowStream(rng, kind%7, n, d, constCol)
	}
	rows := make([][]float64, n)
	first := windowStream(rng, 1, 1, d, constCol)[0]
	for i := range rows {
		p := slices.Clone(first)
		for j := range p {
			switch kind % 7 {
			case 4:
				p[j] = []float64{-1, math.Copysign(0, -1), 0, 1}[rng.Intn(4)]
			case 5:
				p[j] = float64(rng.Intn(2))
				if j == 0 {
					p[j] += 1e16
				}
			case 6:
				p[j] = float64(rng.Intn(3))
				if j == d-1 {
					p[j] = float64(2 * (d - 1))
					for _, v := range p[:j] {
						p[j] -= v
					}
				}
			}
		}
		if constCol >= 0 && constCol < d {
			p[constCol] = 3
		}
		rows[i] = p
	}
	return rows
}
