package skyline

import (
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/points"
)

// sealedBlocks draws n rows of windowStream's regime kind, copies about a
// tenth of them to later places — duplicates inside a block and across
// blocks — cuts them into k blocks at rng-chosen points (empty ones too)
// and makes each block a skyline with BlockBNL, as a map task's window
// seals its share. It returns the blocks and their union.
func sealedBlocks(rng *rand.Rand, kind, n, d, k int) ([]*points.Block, points.Set) {
	rows := windowStream(rng, kind, n, d, -1)
	for i := 1; i < len(rows); i++ {
		if rng.Intn(10) == 0 {
			rows[i] = slices.Clone(rows[rng.Intn(i)])
		}
	}
	cuts := make([]int, k-1)
	for i := range cuts {
		cuts[i] = rng.Intn(len(rows) + 1)
	}
	slices.Sort(cuts)
	cuts = append(cuts, len(rows))
	var blocks []*points.Block
	var union points.Set
	lo := 0
	for _, hi := range cuts {
		blk := points.NewBlock(d, hi-lo)
		for _, p := range rows[lo:hi] {
			blk.AppendRow(p)
		}
		sky := BlockBNL(blk)
		blocks = append(blocks, sky)
		union = append(union, sky.ToSet()...)
		lo = hi
	}
	return blocks, union
}

// foldSealed absorbs blocks into a fold of a budget of budgetRows window
// rows (0: none) by AbsorbSealed, checking the window's lockstep after every
// block and that each block's rows were tested only against the rows held
// before it — none at all for the first — and requires BNL of union as
// the result, as a multiset, with no file left in the spill directory. It
// returns the fold's statistics.
func foldSealed(t *testing.T, blocks []*points.Block, union points.Set, d, budgetRows int) FoldStats {
	t.Helper()
	dir := t.TempDir()
	f := NewBudgetedFold(d, int64(budgetRows*d*8), dir, points.FrameAuto)
	byTick := map[int64][]float64{}
	for b, blk := range blocks {
		for i := 0; i < blk.Len(); i++ {
			byTick[f.tick+int64(i)+1] = blk.Row(i)
		}
		held, tests := f.win.rows.Len(), f.win.tests
		if err := f.AbsorbSealed(blk); err != nil {
			t.Fatal(err)
		}
		if ran := f.win.tests - tests; ran > int64(held*blk.Len()) {
			t.Fatalf("budget %d rows, block %d: %d rows against %d held ran %d tests", budgetRows, b, blk.Len(), held, ran)
		}
		checkLockstep(t, f.win, byTick)
	}
	got, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got.ToSet(), BNL(union)) {
		t.Fatalf("budget %d rows: %d rows, BNL of the union %d", budgetRows, got.Len(), len(BNL(union)))
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) > 0 {
		t.Fatalf("budget %d rows: %d files left in the spill directory, err %v", budgetRows, len(left), err)
	}
	return f.Stats()
}

// TestSealedFoldMatchesBNL is the fuzzer's fixed cases, with what they must
// cover: folds that overflow, replay over several passes and write overflow
// files, under every budget the fuzzer tries.
func TestSealedFoldMatchesBNL(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	overflowed := 0
	for _, d := range []int{2, 4, 10} {
		for kind := 0; kind < 3; kind++ {
			for _, k := range []int{1, 2, 5} {
				blocks, union := sealedBlocks(rng, kind, 400, d, k)
				for _, budgetRows := range []int{0, 1, 3} {
					st := foldSealed(t, blocks, union, d, budgetRows)
					if budgetRows == 0 && (st.Passes != 1 || st.OverflowPoints != 0) {
						t.Fatalf("d=%d kind=%d: an unbounded fold ran %d passes and overflowed %d rows", d, kind, st.Passes, st.OverflowPoints)
					}
					if st.Passes > 2 && st.OverflowBytes > 0 {
						overflowed++
					}
				}
			}
		}
	}
	if overflowed < 20 {
		t.Fatalf("only %d folds replayed overflow over several passes", overflowed)
	}
}

// FuzzSealedFoldMatchesBNL: whatever the rows — duplicates and ties inside
// and across blocks — and however they are cut into k blocks, each made a
// skyline, a fold that takes every block in by AbsorbSealed returns BNL of
// their union, as a multiset, with no budget, a one-row window and a
// three-row one (overflow files and multi-pass replays), its window rows,
// signatures and ticks in lockstep after every block and no file left.
func FuzzSealedFoldMatchesBNL(f *testing.F) {
	f.Add(int64(1), 300, 3, 0, 2)
	f.Add(int64(2), 500, 10, 1, 4)
	f.Add(int64(3), 400, 2, 2, 7)
	f.Add(int64(4), 200, 6, 0, 1)
	f.Fuzz(func(t *testing.T, seed int64, n, d, kind, k int) {
		if n < 0 || n > 800 || d < 1 || d > 16 || kind < 0 || k < 1 || k > 16 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		blocks, union := sealedBlocks(rng, kind, n, d, k)
		for _, budgetRows := range []int{0, 1, 3} {
			foldSealed(t, blocks, union, d, budgetRows)
		}
	})
}
