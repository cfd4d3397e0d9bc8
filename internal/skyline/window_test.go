package skyline

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/points"
)

// plainScan is the unpruned BNL step the window replaced, kept as the
// reference of the differential tests: test p against every row, evict
// what it dominates, append it if it survives — and, like the window,
// promote the row that kills it halfway to the front. Returns the tests it
// ran.
func plainScan(win *points.Block, p []float64) int64 {
	wn := win.Len()
	tests := int64(0)
	for j := 0; j < wn; {
		tests++
		q := win.Row(j)
		var qWorse, pWorse bool
		for k := range q {
			if q[k] > p[k] {
				qWorse = true
			} else if q[k] < p[k] {
				pWorse = true
			}
		}
		if pWorse && !qWorse {
			qi := win.Row(j / 2)
			for k := range q {
				q[k], qi[k] = qi[k], q[k]
			}
			return tests
		}
		if qWorse && !pWorse {
			win.SwapDelete(j)
			wn--
			continue
		}
		j++
	}
	win.AppendRow(p)
	return tests
}

// windowStream draws n rows of dimension d in one of the regimes the
// window must get right: a small integer grid (duplicates and ties on
// every threshold), uniform, and a noisy anti-diagonal whose skyline —
// and so the window — grows past the first-fit and re-fit sizes even at
// d = 1..2. constCol >= 0 pins that column to one value.
func windowStream(rng *rand.Rand, kind, n, d, constCol int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		p := make([]float64, d)
		switch kind % 3 {
		case 0:
			for j := range p {
				p[j] = float64(rng.Intn(6))
			}
		case 1:
			for j := range p {
				p[j] = rng.Float64()
			}
		default:
			s := rng.Float64()
			for j := range p {
				if j%2 == 0 {
					p[j] = s
				} else {
					p[j] = 1 - s
				}
				if d > 2 {
					p[j] += rng.NormFloat64() * 0.05
				}
			}
			if d == 1 {
				p[0] = 0.5 // every row ties: the window keeps them all
			}
		}
		if constCol >= 0 && constCol < d {
			p[constCol] = 3
		}
		rows[i] = p
	}
	return rows
}

// checkWindow asserts the window's internal lockstep: one signature per
// row once fitted, each the signature of the row it sits beside.
func checkWindow(t *testing.T, w *window) {
	t.Helper()
	if w.levels == 0 {
		return
	}
	if len(w.sigs) != w.rows.Len() {
		t.Fatalf("%d signatures for %d rows", len(w.sigs), w.rows.Len())
	}
	for j, sig := range w.sigs {
		if want := w.sign(w.rows.Row(j)); sig != want {
			t.Fatalf("row %d carries signature %#x, its own is %#x", j, sig, want)
		}
	}
}

// checkLockstep asserts that every window row sits beside the tick of the
// row it was absorbed as (byTick) and beside its own signature.
func checkLockstep(t *testing.T, w *window, byTick map[int64][]float64) {
	t.Helper()
	if len(w.ticks) != w.rows.Len() {
		t.Fatalf("%d ticks for %d rows", len(w.ticks), w.rows.Len())
	}
	for j, tick := range w.ticks {
		if !slices.Equal(w.rows.Row(j), byTick[tick]) {
			t.Fatalf("row %d is %v but carries the tick of %v", j, w.rows.Row(j), byTick[tick])
		}
	}
	checkWindow(t, w)
}

// matchReference feeds rows to a Window and to the plain loop and requires
// the same rows in the same order after every Add.
func matchReference(t *testing.T, w *Window, rows [][]float64) (pruned, plain int64) {
	t.Helper()
	ref := points.NewBlock(0, 0)
	for i, p := range rows {
		plain += plainScan(ref, p)
		w.Add(p)
		got, want := w.rows, ref
		if got.Len() != want.Len() {
			t.Fatalf("after row %d: window holds %d rows, reference %d", i, got.Len(), want.Len())
		}
		for j := 0; j < got.Len(); j++ {
			if !slices.Equal(got.Row(j), want.Row(j)) {
				t.Fatalf("after row %d: row %d is %v, reference %v", i, j, got.Row(j), want.Row(j))
			}
		}
	}
	checkWindow(t, &w.window)
	return w.tests, plain
}

// TestSignatureSoundness: whatever the thresholds, a dominating row's
// signature is a subset of the dominated row's — including coordinates
// that sit exactly on a threshold.
func TestSignatureSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 20000; trial++ {
		d := 1 + rng.Intn(64)
		L := min(64/d, maxLevels)
		w := &window{levels: L, thr: make([]float64, d*L)}
		for i := 0; i < d; i++ {
			th := w.thr[i*L : i*L+L]
			for k := range th {
				th[k] = float64(rng.Intn(5)) // coordinates below are drawn from the same grid
			}
			slices.Sort(th)
		}
		p := make([]float64, d)
		q := make([]float64, d)
		for i := range p {
			p[i] = float64(rng.Intn(5))
			q[i] = p[i] - float64(rng.Intn(3)) // q <= p everywhere, often equal
		}
		if sq, sp := w.sign(q), w.sign(p); sq&^sp != 0 {
			t.Fatalf("d=%d thresholds %v: q=%v dominates-or-equals p=%v but sig(q)=%#x is not within sig(p)=%#x", d, w.thr, q, p, sq, sp)
		}
	}
}

// TestWindowMatchesReference is the differential identity: the pruned
// window against the plain loop, row for row after every Add, and against
// the classic BNL as multisets — across duplicates, a constant column,
// dimensions on both sides of every levels-per-dimension step (and past
// 64, where there are no signatures), windows that cross the first-fit
// and re-fit sizes, and Reset followed by another dimension.
func TestWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	w := NewWindow() // one window throughout: every case starts from a Reset
	refits := 0
	for _, d := range []int{1, 2, 6, 10, 12, 13, 21, 22, 64, 65} {
		for kind := 0; kind < 3; kind++ {
			for _, constCol := range []int{-1, d / 2} {
				rows := windowStream(rng, kind, 150+3500/(d+6), d, constCol) // 650 rows at d=1, 200 at d=65
				w.Reset()
				pruned, plain := matchReference(t, w, rows)
				if pruned > plain {
					t.Errorf("d=%d kind=%d: pruned window ran %d tests, plain loop %d", d, kind, pruned, plain)
				}
				if d > 64 && w.levels != 0 {
					t.Errorf("d=%d: window fitted %d levels, want the plain loop", d, w.levels)
				}
				if w.rows.Len() >= firstFit*refitGrowth && d <= 64 {
					refits++
				}
				set := make(points.Set, len(rows))
				for i, p := range rows {
					set[i] = p
				}
				if got := w.Seal().ToSet(); !sameMultiset(got, BNL(set)) {
					t.Fatalf("d=%d kind=%d const=%d: window is not the BNL skyline", d, kind, constCol)
				}
			}
		}
	}
	if refits < 10 {
		t.Fatalf("only %d cases grew the window past a re-fit; the streams no longer cover it", refits)
	}
}

// TestResetForgetsThresholds: a pooled window must not carry signatures or
// thresholds from one task's partition into the next.
func TestResetForgetsThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	w := NewWindow()
	matchReference(t, w, windowStream(rng, 2, 300, 6, -1))
	if w.levels == 0 {
		t.Fatal("stream did not grow the window to its first fit")
	}
	w.Reset()
	if w.levels != 0 || len(w.sigs) != 0 || w.fitAt != firstFit || w.rows.Len() != 0 {
		t.Fatalf("after Reset: levels=%d sigs=%d fitAt=%d rows=%d", w.levels, len(w.sigs), w.fitAt, w.rows.Len())
	}
	matchReference(t, w, windowStream(rng, 2, 300, 10, -1))
}

// TestLazySignature pins the corr_d6 hazard: an arriving point is signed
// only once it has outlived the plain prefix, so a stream that dies there
// computes no signatures at all.
func TestLazySignature(t *testing.T) {
	w := newWindow(2, 0)
	for i := 0; i < 2*firstFit; i++ { // an anti-diagonal: every row survives
		w.add([]float64{float64(i), float64(2*firstFit - i)})
	}
	if w.levels == 0 {
		t.Fatal("window not fitted")
	}
	signs, rows := w.signs, w.rows.Len()
	for i := 0; i < 10000; i++ {
		k := float64(i % plainPrefix) // dominated by row k, met inside the prefix
		w.add([]float64{k + 0.5, float64(2*firstFit) - k + 0.5})
	}
	if w.signs != signs {
		t.Fatalf("%d signatures computed for points that died inside the plain prefix", w.signs-signs)
	}
	if w.rows.Len() != rows {
		t.Fatalf("window changed: %d rows, was %d", w.rows.Len(), rows)
	}
	w.add([]float64{float64(firstFit) + 0.5, float64(firstFit) + 0.5}) // dies at row firstFit, past the prefix
	if w.signs != signs+1 {
		t.Fatalf("a point that outlived the prefix computed %d signatures, want 1", w.signs-signs)
	}
}

// TestBudgetedFoldLockstep drives BudgetedFold with windows of a few rows
// to 150: after every absorbed row each window row must still
// sit beside its own tick and its own signature, through evictions and
// overflow; the multi-pass replay that follows runs the same step and must
// end on the exact skyline.
func TestBudgetedFoldLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	const d = 4
	for _, winRows := range []int{1, 5, 40, 150} {
		rows := windowStream(rng, 2, 2500, d, -1)
		// A few strong late rows so full windows see evictions too.
		for i := 0; i < 20; i++ {
			rows[500+100*i] = []float64{0.3 * rng.Float64(), 0.3 * rng.Float64(), 0.3 * rng.Float64(), 0.3 * rng.Float64()}
		}
		f := NewBudgetedFold(d, int64(winRows*d*8), t.TempDir(), points.FrameAuto)
		byTick := map[int64][]float64{}
		evictions := 0
		for _, p := range rows {
			before := slices.Clone(f.win.ticks)
			if err := f.AbsorbRow(p); err != nil {
				t.Fatal(err)
			}
			byTick[f.tick] = p
			for _, tick := range before {
				if !slices.Contains(f.win.ticks, tick) {
					evictions++
				}
			}
			checkLockstep(t, f.win, byTick)
		}
		if evictions == 0 {
			t.Fatalf("window=%d: stream caused no evictions", winRows)
		}
		if winRows >= firstFit && f.win.levels == 0 {
			t.Fatalf("window=%d never fitted", winRows)
		}
		got, err := f.Finish()
		if err != nil {
			t.Fatal(err)
		}
		st := f.Stats()
		if st.Passes < 2 || st.OverflowPoints == 0 {
			t.Fatalf("window=%d: %d passes, %d overflow points — the budget did not bind", winRows, st.Passes, st.OverflowPoints)
		}
		set := make(points.Set, len(rows))
		for i, p := range rows {
			set[i] = p
		}
		if !sameMultiset(got.ToSet(), BNL(set)) {
			t.Fatalf("window=%d: budgeted fold is not the BNL skyline", winRows)
		}
	}
}

// TestPromotionKeepsLockstep drives a timed, unbounded window through
// promotions, evictions and re-fits: after every step each row must still
// sit beside its own tick and its own signature.
func TestPromotionKeepsLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(136))
	const d = 4
	rows := windowStream(rng, 2, 4000, d, -1)
	for i := 0; i < 30; i++ { // strong late rows: evictions in a large window
		rows[1000+100*i] = []float64{0.4 * rng.Float64(), 0.4 * rng.Float64(), 0.4 * rng.Float64(), 0.4 * rng.Float64()}
	}
	w := newWindow(d, 0)
	w.timed = true
	byTick := map[int64][]float64{}
	promotions, evictions, fits := 0, 0, 0
	for i, p := range rows {
		tick := int64(i + 1)
		before, fitAt := slices.Clone(w.ticks), w.fitAt
		survived := w.scan(p)
		if !survived && !slices.Equal(before, w.ticks) {
			promotions++
		}
		if survived {
			evictions += len(before) - len(w.ticks)
			byTick[tick] = p
			w.push(p, tick)
		}
		if w.fitAt != fitAt {
			fits++
		}
		checkLockstep(t, w, byTick)
	}
	if promotions < 100 || evictions < 10 || fits < 2 {
		t.Fatalf("%d promotions, %d evictions, %d fits: the stream no longer covers all three", promotions, evictions, fits)
	}
}

// FuzzWindowMatchesReference drives the differential identity with
// fuzz-chosen geometry: the pruned window and the plain loop hold the same
// rows in the same order after every Add.
func FuzzWindowMatchesReference(f *testing.F) {
	f.Add(int64(1), 100, 2, 0, -1)
	f.Add(int64(2), 400, 10, 2, 3)
	f.Add(int64(3), 300, 22, 1, -1)
	f.Add(int64(4), 200, 65, 2, 0)
	f.Fuzz(func(t *testing.T, seed int64, n, d, kind, constCol int) {
		if n < 0 || n > 600 || d < 1 || d > 70 || kind < 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		w := NewWindow()
		matchReference(t, w, windowStream(rng, kind, n, d, constCol))
		// A recycled window must behave as a new one, at another dimension.
		w.Reset()
		matchReference(t, w, windowStream(rng, kind+1, n, 1+(d+7)%70, constCol))
	})
}
