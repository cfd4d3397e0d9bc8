package skyline

import (
	"math"
	"sort"

	"repro/internal/points"
)

// The BNL window. Every flat kernel in this package that keeps a window —
// BlockBNL, the map-side Window and BudgetedFold — is a loop around the one
// scan step below; the merge (filter.go) keeps none, and borrows the
// signatures only.
//
// Almost every pair a skyline window compares is incomparable: its rows
// trade off against each other by definition. The window therefore keeps
// one uint64 signature per row, a thermometer code of the row's
// coordinates against per-dimension thresholds: bit (i, k) is set iff
// coordinate i exceeds the k-th threshold of dimension i. If q dominates p
// then q[i] <= p[i] everywhere, so every threshold q exceeds p exceeds
// too: sig(q) &^ sig(p) == 0. A pair that fails that test in both
// directions is incomparable and is skipped with two AND-NOTs instead of
// a d-wide coordinate scan. Skipped pairs are exactly pairs the plain loop
// would have found incomparable — it would have stepped over them too — so
// both loops meet the same first dominator, and the window's rows and
// their order are those of the unpruned loop; only the number of
// coordinate tests executed falls.

const (
	// plainPrefix is how many window rows an arriving point meets with the
	// plain coordinate test before its signature is computed. Points that
	// die young (a correlated stream dies within ~1 test) never pay for a
	// signature; signing every arrival eagerly cost corr_d6 12% of job_s.
	plainPrefix = 4
	// firstFit is the window size at which thresholds are first fitted:
	// below it a plain scan is at most a few tests longer than a signature
	// costs. Thresholds are re-fitted whenever the window has grown
	// refitGrowth-fold since the last fit, so the quantiles track the
	// window as arrivals and evictions reshape it, and are taken over at
	// most ~fitSample evenly strided rows, so a fit costs d short sorts
	// however large the window. Sweeping firstFit 16..64, refitGrowth 2..4
	// and plainPrefix 2..8 moved BlockBNL on QWS d=10, independent d=6 and
	// anti-correlated d=4 by less than run-to-run noise (±5%).
	firstFit    = 32
	refitGrowth = 4
	fitSample   = 1024
	// maxLevels caps the thresholds per dimension; 64/d is what fits when
	// d is large. Measured on BlockBNL, 50k QWS d=10 / 200k independent
	// d=6: 3 levels 153/90 ms, 4 levels 113/65 ms, 5 levels 108/60 ms,
	// 6 levels 97/69 ms — past five the extra bits cost as much signing
	// time as they prune.
	maxLevels = 5
)

// window is a BNL window over a flat block with one signature per row.
// The zero value is not usable; build one with newWindow.
type window struct {
	rows *points.Block
	// sigs[j] is the signature of row j under thr; maintained (and as long
	// as rows) only while levels > 0.
	sigs   []uint64
	levels int       // thresholds per dimension; 0 until the first fit, and always for d > 64
	thr    []float64 // levels ascending thresholds per dimension, dimension-major
	fitAt  int       // window size that triggers the next fit
	col    []float64 // fit scratch: one column of the window

	// ticks[j] is the tick row j was pushed with; maintained only when
	// timed (BudgetedFold's timestamp rule).
	timed bool
	ticks []int64

	// psig is the signature of the point last scanned, valid when psigned:
	// push reuses it.
	psig    uint64
	psigned bool

	tests int64 // coordinate tests executed and not yet published
	signs int64 // arriving points signed (the lazy rule's tally; tests read it)
}

func newWindow(dim, capPoints int) *window {
	return &window{rows: points.NewBlock(dim, capPoints), fitAt: firstFit}
}

// reserve sizes the window for n rows: its coordinates, its ticks when it
// is timed and, past the first fit's size, its signatures, so that pushes up
// to n rows grow none of them.
func (w *window) reserve(n int) {
	if m := w.rows.Len(); n > m {
		w.rows.Extend(w.rows.Dim(), n-m) // grows the array once, to exactly n rows
		w.rows.Truncate(m)
	}
	if w.timed && cap(w.ticks) < n {
		w.ticks = append(make([]int64, 0, n), w.ticks...)
	}
	if n >= firstFit && cap(w.sigs) < n {
		w.sigs = append(make([]uint64, 0, n), w.sigs...)
	}
}

// reset empties the window for reuse, keeping capacity but forgetting
// dimension, signatures and thresholds: the next rows may come from a
// different partition or dimensionality.
func (w *window) reset() {
	w.rows.Clear()
	w.sigs = w.sigs[:0]
	w.ticks = w.ticks[:0]
	w.levels = 0
	w.fitAt = firstFit
}

// publish adds the coordinate tests executed since the last publish to the
// process-wide counter.
func (w *window) publish() {
	dominanceTests.Add(w.tests)
	w.tests = 0
}

// sign computes p's signature under the current thresholds.
func (w *window) sign(p []float64) uint64 {
	L := w.levels
	var sig uint64
	for i, v := range p {
		// The thresholds ascend, so the count of those v exceeds is its
		// level; counted without a branch on each, as group.level counts
		// it: a row's level is as likely one value as another.
		k := 0
		for _, t := range w.thr[i*L : i*L+L] {
			if v > t {
				k++
			}
		}
		sig |= (uint64(1)<<uint(k) - 1) << uint(i*L)
	}
	return sig
}

// fitIfDue re-fits the thresholds to the window's own rows once the
// window has reached fitAt rows.
func (w *window) fitIfDue() {
	if w.rows.Len() >= w.fitAt {
		w.fit(w.rows)
	}
}

// fit sets the thresholds to the per-dimension quantiles of sample's rows
// and re-signs every window row. Any thresholds are sound; quantiles of
// rows like the ones the window will hold make the signatures
// discriminating.
func (w *window) fit(sample *points.Block) {
	if !w.fitThresholds(sample) {
		return
	}
	rows := w.rows.Len()
	if cap(w.sigs) < rows {
		w.sigs = make([]uint64, rows, refitGrowth*rows)
	}
	w.sigs = w.sigs[:rows]
	for j := range w.sigs {
		w.sigs[j] = w.sign(w.rows.Row(j))
	}
}

// fitThresholds is fit without the signing: thresholds, levels and the next
// fit's trigger. It reports whether the dimension leaves a bit per
// dimension to spend; when not, the window stays on the plain loop.
func (w *window) fitThresholds(sample *points.Block) bool {
	n := sample.Len()
	d := sample.Dim()
	L := min(64/d, maxLevels)
	if L == 0 {
		w.fitAt = math.MaxInt
		return false
	}
	w.fitAt = refitGrowth * n
	w.levels = L
	w.thr, w.col = fitLevels(sample, L, w.thr, w.col)
	return true
}

// fitLevels returns, in thr's memory, L ascending thresholds per dimension,
// dimension-major: the L+1-quantiles of sample's columns. col is the
// columns' scratch, returned for reuse.
func fitLevels(sample *points.Block, L int, thr, col []float64) ([]float64, []float64) {
	d := sample.Dim()
	if cap(thr) < d*L {
		thr = make([]float64, d*L)
	}
	thr = thr[:d*L]
	for i := 0; i < d; i++ {
		col = sampleColumn(sample, i, col)
		m := len(col)
		for k := 0; k < L; k++ {
			thr[i*L+k] = col[(k+1)*m/(L+1)]
		}
	}
	return thr, col
}

// scan is the BNL step: test p against the window rows with the twin-flag
// single-pass relation, evicting rows p dominates, and report whether p
// survives. It does not insert p; see push. When a window row dominates p,
// p cannot have evicted anyone earlier (window rows are mutually
// non-dominated), so the scan stops without repair. The relation is
// written here, in the loop, and nowhere else: the compiler keeps the two
// flags in registers and pays no call per pair, which a relation dispatched
// through a function value (once selected per dimension) cost ~1 ns each.
func (w *window) scan(p []float64) bool {
	d := len(p)
	wn := w.rows.Len() // hoisted: Len divides, and the row count only changes on evictions we track
	tests := int64(0)
	var sp uint64
	signed := false
	for j := 0; j < wn; {
		if j >= plainPrefix && w.levels > 0 {
			if !signed {
				sp, signed = w.sign(p), true
				w.signs++
			}
			sigs := w.sigs[:wn]
			for j < wn && sigs[j]&^sp != 0 && sp&^sigs[j] != 0 {
				j++ // neither can dominate the other
			}
			if j == wn {
				break
			}
		}
		tests++
		q := w.rows.Row(j)[:d]
		pp := p[:len(q)]
		var qWorse, pWorse bool
		for k := range q {
			if q[k] > pp[k] {
				qWorse = true
				if pWorse {
					break
				}
			} else if q[k] < pp[k] {
				pWorse = true
				if qWorse {
					break
				}
			}
		}
		if pWorse && !qWorse { // q dominates p: p dies
			if j > 0 {
				w.promote(j)
			}
			w.tests += tests
			return false
		}
		if qWorse && !pWorse { // p dominates q: evict, re-test the swapped-in row
			w.evict(j)
			wn--
			continue
		}
		j++ // equal or incomparable: q stays (duplicates are retained)
	}
	w.tests += tests
	w.psig, w.psigned = sp, signed
	return true
}

// promote swaps row j, which has just killed an arrival, with row j/2 —
// signature and tick in lockstep, as evict. A skyline is order-free, so
// any order is a correct window; this one lets rows that kill drift to the
// front, where the next arrival meets them inside the plain prefix. Measured
// on BenchmarkMapSideFold (1 M independent d=6 points into 8 windows) and
// BlockBNL over 200k of them: no promotion 189 / 55 ms, to j/2 72 / 28 ms,
// to j/4 79 / 29 ms, to 3j/4 77 / 27 ms, one step (j−1) 98 / 41 ms, to the
// front 134 / 50 ms — front churn evicts the proven killers from the
// prefix. Correlated d=6, whose arrivals die at row 0, does not move.
func (w *window) promote(j int) {
	i := j / 2
	qi, qj := w.rows.Row(i), w.rows.Row(j)
	for k := range qi {
		qi[k], qj[k] = qj[k], qi[k]
	}
	if w.levels > 0 {
		w.sigs[i], w.sigs[j] = w.sigs[j], w.sigs[i]
	}
	if w.timed {
		w.ticks[i], w.ticks[j] = w.ticks[j], w.ticks[i]
	}
}

// sampleColumn returns, sorted and in col's memory, dimension i of some
// fitSample evenly strided rows of b (all of them while b is that short).
func sampleColumn(b *points.Block, i int, col []float64) []float64 {
	stride := max(1, b.Len()/fitSample)
	m := b.Len() / stride
	if cap(col) < m {
		col = make([]float64, m)
	}
	col = col[:m]
	for j := range col {
		col[j] = b.Row(j * stride)[i]
	}
	sort.Float64s(col)
	return col
}

// evict swap-deletes row j, with its signature and tick in lockstep.
func (w *window) evict(j int) {
	w.rows.SwapDelete(j)
	if w.levels > 0 {
		last := len(w.sigs) - 1
		w.sigs[j] = w.sigs[last]
		w.sigs = w.sigs[:last]
	}
	if w.timed {
		last := len(w.ticks) - 1
		w.ticks[j] = w.ticks[last]
		w.ticks = w.ticks[:last]
	}
}

// push appends p, which the preceding scan found to survive, stamped with
// tick when the window is timed.
func (w *window) push(p []float64, tick int64) {
	w.rows.AppendRow(p)
	if w.timed {
		w.ticks = append(w.ticks, tick)
	}
	if w.levels > 0 {
		if !w.psigned {
			w.psig = w.sign(p)
		}
		w.sigs = append(w.sigs, w.psig)
	}
	w.fitIfDue()
}

// add runs one unbounded BNL step: scan, and keep p if it survives.
func (w *window) add(p []float64) {
	if w.scan(p) {
		w.push(p, 0)
	}
}

// Window is BlockBNL fed one row at a time: Add runs the same scan step,
// in arrival order, that BlockBNL runs per input row, so after the same
// rows the window holds the same survivors in the same order and
// DominanceTests has advanced by the same amount. It is the map-side
// local-skyline combiner of the frame engine: a map task folds each point
// into its partition's Window as the point is routed, instead of staging
// the partition's block and running BlockBNL over it afterwards. Not safe
// for concurrent use.
type Window struct{ window }

// NewWindow returns an empty window; the first row fixes its dimension.
func NewWindow() *Window { return &Window{*newWindow(0, 0)} }

// Add folds one row into the window, copying it if it survives.
func (w *Window) Add(row []float64) { w.add(row) }

// Seal publishes the dominance tests performed so far and returns the
// current skyline. The block is the window itself: it is valid until the
// next Add or Reset.
func (w *Window) Seal() *points.Block {
	w.publish()
	return w.rows
}

// Reset empties the window for reuse, keeping its capacity and forgetting
// its dimension and thresholds. Tests not yet published by Seal (an
// abandoned task) are published here: they were performed.
func (w *Window) Reset() {
	w.publish()
	w.reset()
}
