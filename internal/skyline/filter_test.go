package skyline

import (
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

// killed is the blocked merge over rows dealt into nBlocks blocks: the rows
// cut into groups consecutive ranges (as even as their count allows), each
// laid out on its own and killed by every block of the stream, and the
// survivors of the groups in group order.
func killed(t testing.TB, rows [][]float64, nBlocks, groups, band int) points.Set {
	t.Helper()
	stream := cut(rows, nBlocks)
	var out points.Set
	for g := 0; g < groups; g++ {
		lo, hi := g*len(rows)/groups, (g+1)*len(rows)/groups
		if lo == hi {
			continue
		}
		f, err := NewFilter(cut(rows[lo:hi], 1), band, 1)
		if err != nil {
			t.Fatal(err)
		}
		if f.Bytes() != LayoutBytes(hi-lo, len(rows[0])) || f.Bytes() <= int64(hi-lo)*int64(len(rows[0]))*8 {
			t.Fatalf("a %d-row layout counts %d bytes, LayoutBytes says %d", hi-lo, f.Bytes(), LayoutBytes(hi-lo, len(rows[0])))
		}
		dominators := make([]int32, f.Len())
		for _, blk := range stream {
			if err := f.Kill(blk, dominators); err != nil {
				t.Fatal(err)
			}
		}
		kept := f.Alive(dominators, func(row []float64) { out = append(out, slices.Clone(row)) })
		if kept > hi-lo {
			t.Fatalf("group %d kept %d of its %d rows", g, kept, hi-lo)
		}
	}
	return out
}

// checkFilter builds a filter over rows dealt into nBlocks blocks, on
// builders goroutines, and requires, against the oracle: the survivors of
// every goroutine count as a multiset, Survives row by row, and Share's
// coverage of the rows — and the same survivors from the rows cut into
// groups, each killed by the whole stream.
func checkFilter(t testing.TB, rows [][]float64, nBlocks, groups, band, builders int) {
	t.Helper()
	f, err := NewFilter(cut(rows, nBlocks), band, builders)
	if err != nil {
		t.Fatal(err)
	}
	set := make(points.Set, len(rows))
	for i, row := range rows {
		set[i] = row
	}
	want := filterOracle(t, set, band)
	if got := killed(t, rows, nBlocks, groups, band); !sameMultiset(got, want) {
		t.Fatalf("band %d, %d blocks, %d groups: %d rows survive the kill walk, oracle %d", band, nBlocks, groups, len(got), len(want))
	}
	for _, workers := range []int{1, 2, 3, len(rows) + 5} {
		if got := f.Survivors(workers).ToSet(); !sameMultiset(got, want) {
			t.Fatalf("band %d, %d blocks, %d goroutines: %d survivors, oracle %d", band, nBlocks, workers, len(got), len(want))
		}
	}
	kept := make(map[string]bool, len(want))
	for _, p := range want {
		kept[points.Key(p)] = true
	}
	for _, row := range rows {
		if got := f.Survives(row); got != kept[points.Key(row)] {
			t.Fatalf("band %d: Survives(%v) = %v, oracle %v", band, row, got, !got)
		}
	}
	tested := 0
	for task := 0; task < 3; task++ {
		tested += f.Share(task, 3, func([]float64) {})
	}
	if tested != len(rows) || f.Len() != len(rows) {
		t.Fatalf("three shares tested %d rows of %d (Len %d)", tested, len(rows), f.Len())
	}
}

// TestFilterMatchesOracle: the cases the layout could get wrong, each for
// the skyline and bands 1–3, from one input block by one builder and from
// many by three.
func TestFilterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	big := math.MaxFloat64 / 2
	cases := map[string][][]float64{
		"duplicates, all retained":      {{1, 2}, {1, 2}, {2, 1}, {2, 2}, {1, 2}, {2, 2}},
		"equal sums, one dominates":     {{1e16, 0}, {1e16, 1}, {1e16, 1}, {0, 1e16}, {1, 1e16}},
		"one row":                       {{3, 1, 4}},
		"sums overflow to +Inf":         {{big, big, big}, {big, big, 1}, {big, big, big}, {1, big, big}, {big, 1, big}, {big, big / 2, big}},
		"negative and positive, wide":   {{-big, big}, {big, -big}, {-big, -big}, {0, 0}, {-big, 0}},
		"constant column":               windowStream(rng, 1, 400, 5, 2),
		"every column constant":         windowStream(rng, 0, 50, 1, 0),
		"integer grid, ties everywhere": windowStream(rng, 0, 600, 4, -1),
		"anti-diagonal":                 windowStream(rng, 2, 500, 2, -1),
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
				checkFilter(t, rows, 1, 1, band, 1)
				checkFilter(t, rows, 8, 3, band, 3)
				checkFilter(t, rows, 3, len(rows), band, 2) // a group a row
			}
		})
	}
}

// TestFilterBitmapsAreTheSignatureTest: the rows a probe leaves for the
// coordinate test are exactly those a row-by-row scan of levels and sums
// leaves — for Survives, no level above the probe's and a sum no larger;
// for Kill, no level below it and a sum no smaller — at dimensions either
// side of one signature word and row counts either side of one bitmap
// word, and the walks test exactly those rows.
func TestFilterBitmapsAreTheSignatureTest(t *testing.T) {
	rng := rand.New(rand.NewSource(244))
	for _, d := range []int{2, 6, 10, 64, 65} {
		for _, n := range []int{1, 63, 64, 65, 129, 3000} {
			rows := windowStream(rng, n%3, n, d, -1)
			f, err := NewFilter(cut(rows, 3), n+1, 2) // no row dies: every walk runs to its end
			if err != nil {
				t.Fatal(err)
			}
			levels := func(p []float64) []int {
				lv := make([]int, d)
				for i, v := range p {
					for _, thr := range f.thr[i*f.levels : (i+1)*f.levels] {
						if v > thr {
							lv[i]++
						}
					}
				}
				return lv
			}
			layout := make([][]int, f.Len())
			for j := range layout {
				layout[j] = levels(f.rows.Row(j))
			}
			probes := append(slices.Clone(rows[:min(n, 40)]), windowStream(rng, 1, 10, d, -1)...)
			for _, p := range probes {
				lp, sp := levels(p), rowSum(p)
				var under, over []int
				for j, lq := range layout {
					below, above := true, true
					for i := range lq {
						below = below && lq[i] <= lp[i]
						above = above && lq[i] >= lp[i]
					}
					if below && f.sums[j] <= sp {
						under = append(under, j)
					}
					if above && f.sums[j] >= sp {
						over = append(over, j)
					}
				}
				if got := probed(f, f.dominators(p, sp, nil)); !slices.Equal(got, under) {
					t.Fatalf("d=%d n=%d: Survives's probe keeps rows %v, the scan %v", d, n, got, under)
				}
				if got := probed(f, f.dominated(p, sp, nil)); !slices.Equal(got, over) {
					t.Fatalf("d=%d n=%d: Kill's probe keeps rows %v, the scan %v", d, n, got, over)
				}
				if _, tests := f.survives(p, nil); tests != int64(len(under)) {
					t.Fatalf("d=%d n=%d: Survives tested %d rows, its probe keeps %d", d, n, tests, len(under))
				}
				if tests := f.kills(p, make([]int32, f.Len()), nil); tests != int64(len(over)) {
					t.Fatalf("d=%d n=%d: Kill tested %d rows, its probe keeps %d", d, n, tests, len(over))
				}
			}
		}
	}
}

// probed lists the layout rows a probe keeps, in ascending order.
func probed(f *Filter, pr probe) []int {
	var rows []int
	for w := pr.lo / 64; w*64 < pr.hi; w += 4 {
		a0, a1, a2, a3 := f.block(&pr, w)
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
// probe tests a handful of rows, not the half of the set whose sum is
// below its own.
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
	f, err := NewFilter(cut(rows, 1), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	t0 := DominanceTests()
	kept := f.Survivors(1).Len()
	perRow := float64(DominanceTests()-t0) / n
	if perRow > n/16 {
		t.Fatalf("d=%d: %.1f coordinate tests a row, want well below n/2 = %d", d, perRow, n/2)
	}
	if want := len(BNL(set)); kept != want {
		t.Fatalf("d=%d: %d survivors, oracle %d", d, kept, want)
	}
	t.Logf("d=%d: %.2f tests a row, %d survivors of %d", d, perRow, kept, n)
}

// TestFilterRejects: a set no filter can be laid out from is ErrCandidates.
func TestFilterRejects(t *testing.T) {
	two, _ := points.BlockOf(points.Set{{1, 2}, {2, 1}})
	three, _ := points.BlockOf(points.Set{{1, 2, 3}})
	for name, blocks := range map[string][]*points.Block{
		"no blocks":        nil,
		"only empty ones":  {points.NewBlock(0, 0), points.NewBlock(4, 0)},
		"mixed dimensions": {two, points.NewBlock(0, 0), three},
	} {
		if f, err := NewFilter(blocks, 0, 2); !errors.Is(err, ErrCandidates) || f != nil {
			t.Errorf("%s: NewFilter returned %v, %v; want ErrCandidates", name, f, err)
		}
	}
}

// TestKillRejectsOtherDimensions: a block streamed past a layout of another
// dimension is ErrCandidates, and counts nothing.
func TestKillRejectsOtherDimensions(t *testing.T) {
	two, _ := points.BlockOf(points.Set{{2, 2}, {3, 1}})
	three, _ := points.BlockOf(points.Set{{1, 1, 1}})
	f, err := NewFilter([]*points.Block{two}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	dominators := make([]int32, f.Len())
	if err := f.Kill(three, dominators); !errors.Is(err, ErrCandidates) || !strings.Contains(err.Error(), "3-dimensional rows streamed past a 2-dimensional layout") {
		t.Errorf("Kill of 3-dimensional rows: %v, want ErrCandidates naming both dimensions", err)
	}
	if err := f.Kill(points.NewBlock(5, 0), dominators); err != nil {
		t.Errorf("Kill of an empty block: %v", err)
	}
	if !slices.Equal(dominators, []int32{0, 0}) {
		t.Errorf("dominators %v after refused blocks, want none counted", dominators)
	}
}

// layoutOf copies everything Survives reads.
func layoutOf(f *Filter) []any {
	return []any{f.rows.Clone(), slices.Clone(f.sums), slices.Clone(f.thr), f.levels, f.words, slices.Clone(f.ge), f.kill}
}

// TestFilterLayoutIsAFunctionOfRows: the tasks of a cluster merging job each
// build their own filter and share the rows out by index, so two builds from
// the same row sequence — however it is cut into blocks, and on however many
// goroutines each is made — must agree exactly, duplicates and equal sums
// included.
func TestFilterLayoutIsAFunctionOfRows(t *testing.T) {
	rng := rand.New(rand.NewSource(242))
	for _, d := range []int{2, 6, 10, 65} {
		rows := windowStream(rng, 0, 3000, d, -1) // the grid: thousands of equal sums
		rows = append(rows, rows[:200]...)
		ref, err := NewFilter(cut(rows, 1), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, nBlocks := range []int{1, 2, 9} {
			for _, builders := range []int{1, 2, 8} {
				f, err := NewFilter(cut(rows, nBlocks), 0, builders)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(layoutOf(f), layoutOf(ref)) {
					t.Fatalf("d=%d: a build from %d blocks by %d builders differs from one builder's from one block", d, nBlocks, builders)
				}
			}
		}
	}
}

// TestFilterSharedReadOnly: one filter serves every goroutine of a merge,
// so Survives, Share and Survivors must only read it. Under -race a write
// is reported; without it the layout is compared before and after.
func TestFilterSharedReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(243))
	rows := windowStream(rng, 2, 4000, 5, -1)
	f, err := NewFilter(cut(rows, 4), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := layoutOf(f)
	want := f.Survivors(1).Len()
	if want == 0 || want == len(rows) {
		t.Fatalf("%d of %d rows survive: the stream no longer has both kinds", want, len(rows))
	}
	var wg sync.WaitGroup
	kept := make([]int, 8)
	for g := range kept {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(rows); i += len(kept) {
				if f.Survives(rows[i]) {
					kept[g]++
				}
			}
			f.Share(g, len(kept), func([]float64) {})
			f.Survivors(2)
			if err := f.Kill(points.NewBlock(5, 0), nil); err != nil {
				t.Error(err)
			}
			dominators := make([]int32, f.Len())
			for _, blk := range cut(rows, 3) {
				if err := f.Kill(blk, dominators); err != nil {
					t.Error(err)
				}
			}
			if alive := f.Alive(dominators, func([]float64) {}); alive != want {
				t.Errorf("the kill walk kept %d rows, the filter %d", alive, want)
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range kept {
		total += n
	}
	if total != want {
		t.Fatalf("8 goroutines kept %d rows, one kept %d", total, want)
	}
	if !reflect.DeepEqual(layoutOf(f), before) {
		t.Fatal("filtering changed the layout")
	}
}

// FuzzFilterMatchesReference drives the filter with fuzz-chosen geometry —
// stream kind, size, dimension, a constant column, the band, the number of
// input blocks, the number of goroutines that build the layout and the
// number of groups the kill walk cuts the rows into — against the classic
// oracle.
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
	f.Fuzz(func(t *testing.T, seed int64, n, d, kind, constCol, band, nBlocks, builders, groups int) {
		if n < 1 || n > 500 || d < 1 || d > 70 || kind < 0 || band < 0 || band > 4 || nBlocks < 1 || nBlocks > 64 || builders < 0 || builders > 16 || groups < 1 || groups > 64 {
			t.Skip()
		}
		checkFilter(t, filterStream(rand.New(rand.NewSource(seed)), kind, n, d, constCol), nBlocks, groups, band, builders)
	})
}

// filterStream is windowStream for kinds 0–2 (mod 6), and three streams
// that aim at the layout's edges: 3, every row equal; 4, coordinates drawn
// from −1, −0, +0 and 1; 5, a first coordinate so large that the rest is
// lost in every sum, so that rows dominate at a sum tie.
func filterStream(rng *rand.Rand, kind, n, d, constCol int) [][]float64 {
	if kind%6 < 3 {
		return windowStream(rng, kind%6, n, d, constCol)
	}
	rows := make([][]float64, n)
	first := windowStream(rng, 1, 1, d, constCol)[0]
	for i := range rows {
		p := slices.Clone(first)
		for j := range p {
			switch kind % 6 {
			case 4:
				p[j] = []float64{-1, math.Copysign(0, -1), 0, 1}[rng.Intn(4)]
			case 5:
				p[j] = float64(rng.Intn(2))
				if j == 0 {
					p[j] += 1e16
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
