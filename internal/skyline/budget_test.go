package skyline

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/points"
)

// canonical renders a block as sorted row strings so two skylines can be
// compared as multisets regardless of row order.
func canonical(b *points.Block) []string {
	out := make([]string, b.Len())
	for i := 0; i < b.Len(); i++ {
		out[i] = fmt.Sprintf("%x", b.Row(i))
	}
	sort.Strings(out)
	return out
}

func randBlock(rng *rand.Rand, n, d int, anti bool) *points.Block {
	blk := points.NewBlock(d, n)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		if anti {
			// Anti-correlated-ish: large skyline, stresses the window.
			s := rng.Float64()
			for j := 0; j < d; j++ {
				row[j] = s + rng.NormFloat64()*0.05
				if j > 0 {
					row[j] = 1 - row[j-1] + rng.NormFloat64()*0.05
				}
			}
		} else {
			for j := 0; j < d; j++ {
				row[j] = rng.Float64()
			}
		}
		blk.AppendRow(row)
	}
	return blk
}

func TestBudgetedFoldOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, tc := range []struct {
		name   string
		n, d   int
		anti   bool
		budget int64
		codec  points.FrameCodec
	}{
		{"ample", 2000, 4, false, 1 << 20, points.FrameDefault},
		{"tight", 2000, 4, false, 4 * 8 * 8, points.FrameAuto}, // 8-row window
		{"one-row-window", 500, 3, false, 1, points.FrameV2},   // clamps to 1 row
		{"anti-tight", 1500, 5, true, 5 * 8 * 16, points.FrameAuto},
		{"anti-ample", 1500, 5, true, 1 << 20, points.FrameV1},
		{"d2-tiny", 800, 2, false, 2 * 8 * 4, points.FrameAuto},
		// No budget is no bound: one pass, nothing overflows, BlockBNL's rows.
		{"unbounded", 1500, 5, true, 0, points.FrameAuto},
		{"unbounded-negative", 2000, 4, false, -1, points.FrameDefault},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blk := randBlock(rng, tc.n, tc.d, tc.anti)
			testsBefore := DominanceTests()
			bnl := BlockBNL(blk)
			bnlTests := DominanceTests() - testsBefore
			want := canonical(bnl)

			dir := t.TempDir()
			fold := NewBudgetedFold(tc.d, tc.budget, dir, tc.codec)
			// Feed in uneven chunks to exercise the streaming path.
			for lo := 0; lo < blk.Len(); {
				hi := lo + 1 + rng.Intn(97)
				if hi > blk.Len() {
					hi = blk.Len()
				}
				if err := fold.Absorb(blk.Slice(lo, hi)); err != nil {
					t.Fatalf("Absorb: %v", err)
				}
				lo = hi
			}
			got, err := fold.Finish()
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			gotC := canonical(got)
			if len(gotC) != len(want) {
				t.Fatalf("skyline size %d, want %d (passes=%d)", len(gotC), len(want), fold.Stats().Passes)
			}
			for i := range want {
				if gotC[i] != want[i] {
					t.Fatalf("skyline mismatch at %d (passes=%d)", i, fold.Stats().Passes)
				}
			}
			st := fold.Stats()
			if st.PeakBytes <= 0 {
				t.Fatal("peak bytes not recorded")
			}
			if tc.budget <= 0 {
				// The fold was BlockBNL, a chunk at a time: the same rows in
				// the same order for the same coordinate tests, and no file.
				if tests := DominanceTests() - testsBefore - bnlTests; !reflect.DeepEqual(got.ToSet(), bnl.ToSet()) || tests != bnlTests {
					t.Errorf("unbounded fold differs from BlockBNL in a row, its place or the work: %d tests, BlockBNL %d", tests, bnlTests)
				}
				if left, _ := os.ReadDir(dir); st.Passes != 1 || st.OverflowPoints != 0 || len(left) != 0 {
					t.Errorf("unbounded fold: %d passes, %d overflow points, %d files", st.Passes, st.OverflowPoints, len(left))
				}
				return
			}
			wantSkyline := len(want)
			winRows := int(tc.budget / int64(tc.d*8))
			if winRows < 1 {
				winRows = 1
			}
			if wantSkyline > winRows && st.Passes < 2 {
				t.Fatalf("skyline %d exceeds %d-row window but only %d pass(es)", wantSkyline, winRows, st.Passes)
			}
			if st.Passes > 1 && st.OverflowPoints == 0 {
				t.Fatal("multi-pass run reported no overflow points")
			}
		})
	}
}

func TestBudgetedFoldDuplicates(t *testing.T) {
	// Duplicate skyline rows must be retained, matching the in-memory
	// kernels, even across overflow passes.
	blk := points.NewBlock(3, 0)
	for i := 0; i < 6; i++ {
		blk.AppendRow([]float64{0.1, 0.2, 0.3})
	}
	for i := 0; i < 50; i++ {
		blk.AppendRow([]float64{0.5 + float64(i)*0.001, 0.5, 0.5})
	}
	want := canonical(BlockBNL(blk))

	fold := NewBudgetedFold(3, 3*8*2, t.TempDir(), points.FrameAuto) // 2-row window
	if err := fold.Absorb(blk); err != nil {
		t.Fatal(err)
	}
	got, err := fold.Finish()
	if err != nil {
		t.Fatal(err)
	}
	gotC := canonical(got)
	if len(gotC) != len(want) {
		t.Fatalf("got %d rows, want %d (duplicates dropped?)", len(gotC), len(want))
	}
	for i := range want {
		if gotC[i] != want[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestBudgetedFoldEmptyAndMisuse(t *testing.T) {
	fold := NewBudgetedFold(4, 1<<16, t.TempDir(), points.FrameDefault)
	got, err := fold.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty fold produced %d rows", got.Len())
	}
	if _, err := fold.Finish(); err == nil {
		t.Fatal("second Finish did not error")
	}
	if err := fold.AbsorbRow([]float64{1, 2, 3, 4}); err == nil {
		t.Fatal("Absorb after Finish did not error")
	}
}

// TestBudgetedFoldClose: closing a fold that has overflowed removes its
// temp file; Close is idempotent, a no-op after Finish, and a closed fold
// refuses further use.
func TestBudgetedFoldClose(t *testing.T) {
	dir := t.TempDir()
	files := func() int {
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(left)
	}
	fold := NewBudgetedFold(4, 1024, dir, points.FrameDefault)
	if err := fold.Absorb(randBlock(rand.New(rand.NewSource(5)), 3000, 4, true)); err != nil {
		t.Fatal(err)
	}
	if files() != 1 {
		t.Fatalf("%d overflow files after a 3000-row absorb under a 1 KiB budget, want 1", files())
	}
	for i := 0; i < 2; i++ {
		if err := fold.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if files() != 0 {
		t.Fatalf("%d files left after Close", files())
	}
	if err := fold.AbsorbRow([]float64{1, 2, 3, 4}); err == nil {
		t.Error("Absorb after Close did not error")
	}
	if _, err := fold.Finish(); err == nil {
		t.Error("Finish after Close did not error")
	}

	done := NewBudgetedFold(4, 1024, dir, points.FrameDefault)
	if err := done.Absorb(randBlock(rand.New(rand.NewSource(6)), 3000, 4, true)); err != nil {
		t.Fatal(err)
	}
	sky, err := done.Finish()
	if err != nil || sky.Len() == 0 {
		t.Fatalf("Finish: %d rows, err %v", sky.Len(), err)
	}
	rows := sky.Len()
	if err := done.Close(); err != nil || sky.Len() != rows || files() != 0 {
		t.Errorf("Close after Finish: err %v, result %d → %d rows, %d files", err, rows, sky.Len(), files())
	}
}

// TestExpectSizesTheWindowOnce: a fold told the rows of its frames holds its
// window rows, signatures and ticks in arrays sized once — a skyline of
// every row comes out with capacity equal to length — and keeps what it
// keeps unchanged; a budget caps what it reserves.
func TestExpectSizesTheWindowOnce(t *testing.T) {
	const n = 600 // two sealed frames of one anti-diagonal: nothing dominates
	frames := [2]*points.Block{points.NewBlock(2, n/2), points.NewBlock(2, n/2)}
	for i := 0; i < n; i++ {
		frames[i%2].AppendRow([]float64{float64(i), float64(n - i)})
	}
	f := NewBudgetedFold(2, 0, "", points.FrameV1)
	f.Expect(n)
	for _, blk := range frames {
		if err := f.AbsorbSealed(blk); err != nil {
			t.Fatal(err)
		}
	}
	if cap(f.win.sigs) != n || cap(f.win.ticks) != n {
		t.Errorf("signatures cap %d, ticks cap %d, want %d", cap(f.win.sigs), cap(f.win.ticks), n)
	}
	out, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	first := &out.Row(0)[0]
	if out.Len() != n {
		t.Fatalf("%d rows kept, want %d", out.Len(), n)
	}
	if out.AppendRow(out.Row(0)); &out.Row(0)[0] == first {
		t.Error("the window has room past its rows")
	}
	budgeted := NewBudgetedFold(2, 10*16, "", points.FrameV1)
	budgeted.Expect(n)
	if got := cap(budgeted.win.ticks); got != 10 {
		t.Errorf("a 10-row budget reserved %d ticks", got)
	}
	budgeted.Close()
}
