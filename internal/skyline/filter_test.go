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
	// Every row in one mask group: the rows agree on every dimension the
	// mask looks at and differ only past it.
	oneGroup := make([][]float64, 300)
	for i := range oneGroup {
		oneGroup[i] = make([]float64, maxMaskBits+2)
		oneGroup[i][maxMaskBits], oneGroup[i][maxMaskBits+1] = float64(rng.Intn(9)), float64(rng.Intn(9))
	}
	cases["one mask group of many"] = oneGroup
	// A group per mask: the corners of the 6-cube, four rows each so that
	// six mask bits are spent, and a few more at the origin so that every
	// median is 0.
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
	cases["a group per cube corner"] = corners
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
	return []any{f.win.rows.Clone(), slices.Clone(f.win.thr), f.win.levels,
		slices.Clone(f.keys), slices.Clone(f.med), slices.Clone(f.start), f.kill}
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
	f.Fuzz(func(t *testing.T, seed int64, n, d, kind, constCol, band, nBlocks, builders, groups int) {
		if n < 1 || n > 500 || d < 1 || d > 70 || kind < 0 || band < 0 || band > 4 || nBlocks < 1 || nBlocks > 64 || builders < 0 || builders > 16 || groups < 1 || groups > 64 {
			t.Skip()
		}
		checkFilter(t, windowStream(rand.New(rand.NewSource(seed)), kind, n, d, constCol), nBlocks, groups, band, builders)
	})
}
