package skyline

// The merge is a filter. The paper funnels every local skyline through one
// reducer, a sequential BNL over their union; Ciaccia & Martinenghi name
// that last phase the limit of every partitioned scheme and give the remedy
// this file implements: test every candidate, in parallel, against a set
// that is only read. A row of the union belongs to the global skyline iff
// no row of the union strictly dominates it, whichever local skyline either
// came from — so the merge needs no window, no eviction and no order of
// arrival, only a fast answer to "does anything here dominate p?".
//
// A Filter answers it from a layout built once and never written again,
// Tan, Eng & Ooi's Bitmap test (VLDB 2001) on a sum order:
//
//   - rows ascend by coordinate sum, ties in input order. q dominates p
//     implies sum(q) <= sum(p) — floating-point addition is monotone, though
//     not strictly: (1e16, 0) and (1e16, 1) share a sum — so p's dominators
//     all lie before a cut one binary search finds, and the strongest come
//     first;
//   - each dimension is cut into levels by the window's thermometer
//     thresholds (window.go) fitted to the layout, and for every (dimension
//     i, level k) one bitmap marks the rows whose level in i exceeds k. If q
//     dominates p, q's level is at most p's in every dimension, so p's
//     dominators are among the rows before the cut that lie in no bitmap
//     (i, level_i(p)): d AND-NOTs rule out 64 rows at a time, and only the
//     rows left — exactly those a signature test would let through — are
//     tested coordinate by coordinate.
//
// BenchmarkMergeFilter, 13 k QWS d=10 candidates on one goroutine of a
// 2-vCPU Xeon: median-mask groups walked row by row with a signature each
// filtered in 64–83 ms, the bitmaps in 31–37; DESIGN.md has the rest.
//
// Under a memory budget the same layout is read the other way round. A
// merge task lays out only a group of the candidates and streams every
// candidate past it (Kill): a candidate q can dominate only rows at or past
// its own sum that lie in every bitmap (i, level_i(q) − 1), and each layout
// row counts its dominators until it dies.

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/fan"
	"repro/internal/points"
)

// ErrCandidates is wrapped by every error NewFilter returns: the candidate
// set is empty or mixes dimensions.
var ErrCandidates = errors.New("skyline: unusable candidate set")

// Filter is a candidate set laid out to answer Survives. It is read-only
// once built: any number of goroutines may share one.
type Filter struct {
	rows   *points.Block // the candidates, ascending by (sum, input index)
	sums   []float64     // sums[j] is row j's coordinate sum
	thr    []float64     // levels ascending thresholds per dimension, dimension-major
	levels int           // thresholds per dimension
	words  int           // 64-row words per bitmap
	// ge holds bitmap (i, k), the rows whose level in dimension i exceeds
	// k, at ge[(i*levels+k)*words:]: bit j%64 of its word j/64 is row j.
	// Three words of padding follow the last bitmap, so that four words
	// can be read from any word of any bitmap.
	ge   []uint64
	kill int // dominators a row dies of
}

// filterLevels is the thresholds per dimension a layout of d-dimensional
// rows keeps: the window's, and at least the median where the window's
// uint64 signature leaves none.
func filterLevels(d int) int { return max(1, min(64/d, maxLevels)) }

// NewFilter lays out the rows of blocks, taken as one sequence, block after
// block. band is the operator: 0 filters to the skyline, k >= 1 to the
// k-skyband (a row survives fewer than k dominators). The layout is built on
// builders goroutines (one builds on the caller's alone) and is a function
// of that row sequence alone — two builds from the same rows, by however
// many builders, agree row for row, which is what lets the tasks of a
// cluster job, each building its own, split the rows between them by index.
func NewFilter(blocks []*points.Block, band, builders int) (*Filter, error) {
	src := rowSeq{ends: make([]int, 0, len(blocks))}
	n, d := 0, 0
	for _, b := range blocks {
		if b.Len() == 0 {
			continue
		}
		if n > 0 && b.Dim() != d {
			return nil, fmt.Errorf("%w: %d- and %d-dimensional rows", ErrCandidates, d, b.Dim())
		}
		d, n = b.Dim(), n+b.Len()
		src.blocks, src.ends = append(src.blocks, b), append(src.ends, n)
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: no rows", ErrCandidates)
	}
	return layOut(src, n, d, band, max(1, min(builders, n))), nil
}

// rowSeq is the non-empty blocks of a candidate set read as one row
// sequence, where they lie: ends[b] rows lie in blocks[:b+1].
type rowSeq struct {
	blocks []*points.Block
	ends   []int
}

// row returns row i of the sequence.
func (s rowSeq) row(i int) []float64 {
	b := sort.SearchInts(s.ends, i+1)
	if b > 0 {
		i -= s.ends[b-1]
	}
	return s.blocks[b].Row(i)
}

// sumKey is a row's place in the layout's order.
type sumKey struct {
	sum float64
	i   int32 // the row's index in the input sequence
}

// layOut builds the filter over the n d-dimensional rows of src. Every
// parallel step writes ranges that no other share touches — the bitmaps
// are cut on whole words — and none reads what a share of the same step
// writes, so the layout does not depend on the number of builders.
func layOut(src rowSeq, n, d, band, builders int) *Filter {
	L, words := filterLevels(d), (n+63)/64
	f := &Filter{rows: points.NewBlock(d, n), sums: make([]float64, n), levels: L, words: words, ge: make([]uint64, d*L*words+3), kill: max(band, 1)}
	keys := sortedKeys(src, n, builders)
	f.rows.Extend(d, n)
	fan.Out(builders, func(share int) {
		lo, hi := fan.Cut(n, builders, share)
		for j := lo; j < hi; j++ {
			copy(f.rows.Row(j), src.row(int(keys[j].i)))
			f.sums[j] = keys[j].sum
		}
	})
	f.thr, _ = fitLevels(f.rows, L, nil, nil)
	fan.Out(builders, func(share int) {
		lo, hi := fan.Cut(words, builders, share)
		for j := lo * 64; j < min(hi*64, n); j++ {
			bit := uint64(1) << (j % 64)
			for i, v := range f.rows.Row(j) {
				bm, t := f.ge[i*L*words+j/64:], f.thr[i*L:i*L+L]
				for k := 0; k < L && v > t[k]; k++ {
					bm[k*words] |= bit
				}
			}
		}
	})
	return f
}

// sortedKeys returns the n rows of src in the layout's order, on builders
// goroutines: each keys and sorts a share of the rows, and neighbouring
// sorted runs are merged, in parallel, until one is left.
func sortedKeys(src rowSeq, n, builders int) []sumKey {
	keys, buf := make([]sumKey, n), make([]sumKey, n)
	runs := make([]int, builders+1) // run r is keys[runs[r]:runs[r+1]]
	for r := range runs {
		runs[r], _ = fan.Cut(n, builders, r)
	}
	fan.Out(builders, func(r int) {
		run := keys[runs[r]:runs[r+1]]
		for k := range run {
			i := runs[r] + k
			run[k] = sumKey{rowSum(src.row(i)), int32(i)}
		}
		slices.SortFunc(run, compareKeys)
	})
	for len(runs) > 2 {
		fan.Out(len(runs)/2, func(p int) {
			lo, mid, hi := runs[2*p], runs[min(2*p+1, len(runs)-1)], runs[min(2*p+2, len(runs)-1)]
			mergeKeys(buf[lo:hi], keys[lo:mid], keys[mid:hi])
		})
		keys, buf = buf, keys
		for r := 1; 2*r < len(runs); r++ {
			runs[r] = runs[2*r]
		}
		runs = append(runs[:len(runs)/2], runs[len(runs)-1])
	}
	return keys
}

// compareKeys orders keys by sum, NaN first as cmp.Compare has it, then by
// input index. The two comparisons decide almost every pair on their own.
func compareKeys(a, b sumKey) int {
	switch {
	case a.sum < b.sum:
		return -1
	case a.sum > b.sum:
		return 1
	}
	return cmp.Or(cmp.Compare(a.sum, b.sum), int(a.i)-int(b.i))
}

// mergeKeys merges the sorted runs a and b into out, len(a)+len(b) long.
func mergeKeys(out, a, b []sumKey) {
	i, j := 0, 0
	for k := range out {
		if j == len(b) || i < len(a) && compareKeys(a[i], b[j]) < 0 {
			out[k], i = a[i], i+1
		} else {
			out[k], j = b[j], j+1
		}
	}
}

// rowSum is a row's coordinate sum, added in dimension order.
func rowSum(p []float64) (sum float64) {
	for _, v := range p {
		sum += v
	}
	return sum
}

// LayoutBytes is what a filter over n d-dimensional rows holds: every row's
// coordinates and sum, and its bitmaps, each rounded up to whole 64-row
// words, with their padding. A budget sizes a layout by it before there is
// one to ask (Filter.Bytes).
func LayoutBytes(n, d int) int64 {
	return int64(n)*int64(d*8+8) + (int64(d*filterLevels(d))*int64((n+63)/64)+3)*8
}

// Bytes is LayoutBytes of the filter's rows.
func (f *Filter) Bytes() int64 { return LayoutBytes(f.Len(), f.Dim()) }

// Len returns the number of candidate rows.
func (f *Filter) Len() int { return f.rows.Len() }

// Dim returns the candidates' dimension.
func (f *Filter) Dim() int { return f.rows.Dim() }

// level is the number of dimension i's thresholds v exceeds, counted
// without a branch on each: a row's level is as likely one value as another.
func (f *Filter) level(i int, v float64) (k int) {
	for _, t := range f.thr[i*f.levels : (i+1)*f.levels] {
		if v > t {
			k++
		}
	}
	return k
}

// A probe is one row's bitmap test: the layout rows in [lo, hi) set in
// every bitmap at offs, each read XOR flip.
type probe struct {
	lo, hi int
	offs   []int
	flip   uint64
}

// dominators is the probe for the rows that may dominate p, whose sum is
// psum: those before p's sum cut with no level above p's — outside bitmap
// (i, level_i(p)) for every dimension below its top level. offs is
// scratch, reused.
func (f *Filter) dominators(p []float64, psum float64, offs []int) probe {
	offs = offs[:0]
	for i, v := range p {
		if k := f.level(i, v); k < f.levels {
			offs = append(offs, (i*f.levels+k)*f.words)
		}
	}
	hi := sort.Search(len(f.sums), func(j int) bool { return f.sums[j] > psum })
	return probe{hi: hi, offs: offs, flip: ^uint64(0)}
}

// dominated is the probe for the rows q may dominate, whose sum is qsum:
// those from q's sum on with no level below q's — inside bitmap (i,
// level_i(q) − 1) for every dimension above its bottom level. offs is
// scratch, reused.
func (f *Filter) dominated(q []float64, qsum float64, offs []int) probe {
	offs = offs[:0]
	for i, v := range q {
		if k := f.level(i, v); k > 0 {
			offs = append(offs, (i*f.levels+k-1)*f.words)
		}
	}
	lo := sort.Search(len(f.sums), func(j int) bool { return f.sums[j] >= qsum })
	return probe{lo: lo, hi: len(f.sums), offs: offs}
}

// block returns the rows of words w … w+3 that pr keeps, a word each: four
// words per pass over the probe's bitmaps. Words past a bitmap's last are
// the next bitmap's, or padding, and hold rows past hi: they are masked.
func (f *Filter) block(pr *probe, w int) (a0, a1, a2, a3 uint64) {
	base := w * 64
	a0 = below(pr.hi-base) &^ below(pr.lo-base)
	a1 = below(pr.hi-base-64) &^ below(pr.lo-base-64)
	a2 = below(pr.hi-base-128) &^ below(pr.lo-base-128)
	a3 = below(pr.hi-base-192) &^ below(pr.lo-base-192)
	ge, flip := f.ge, pr.flip
	for _, o := range pr.offs {
		if a0|a1|a2|a3 == 0 {
			break // no row left to rule out
		}
		b := ge[o+w : o+w+4 : o+w+4]
		a0 &= b[0] ^ flip
		a1 &= b[1] ^ flip
		a2 &= b[2] ^ flip
		a3 &= b[3] ^ flip
	}
	return a0, a1, a2, a3
}

// below is the word whose bits 0 … x−1 are set.
func below(x int) uint64 {
	switch {
	case x >= 64:
		return ^uint64(0)
	case x <= 0:
		return 0
	}
	return 1<<uint(x) - 1
}

// dominates reports whether q strictly dominates p, both d long.
func dominates(q, p []float64) bool {
	strict, k := false, 0
	for ; k < len(q) && q[k] <= p[k]; k++ {
		strict = strict || q[k] < p[k]
	}
	return k == len(q) && strict
}

// Survives reports whether row — of the filter's dimension; one of its own
// rows or any other — is dominated by fewer candidates than kill it.
// Coordinate-equal rows do not dominate each other: duplicates all survive.
func (f *Filter) Survives(row []float64) bool {
	ok, tests := f.survives(row, make([]int, 0, f.Dim()))
	dominanceTests.Add(tests)
	return ok
}

// survives is Survives with the coordinate tests it ran left to the caller
// to publish; offs is the probe's scratch. It tests the rows the bitmaps
// leave in ascending sum, the strongest dominators first.
func (f *Filter) survives(p []float64, offs []int) (bool, int64) {
	d := f.rows.Dim()
	p = p[:d]
	pr := f.dominators(p, rowSum(p), offs)
	tests, found := int64(0), 0
	for w := 0; w*64 < pr.hi; w += 4 {
		a0, a1, a2, a3 := f.block(&pr, w)
		for k, word := range [4]uint64{a0, a1, a2, a3} {
			for ; word != 0; word &= word - 1 {
				tests++
				if dominates(f.rows.Row((w+k)*64 + bits.TrailingZeros64(word))[:d], p) {
					if found++; found == f.kill {
						return false, tests
					}
				}
			}
		}
	}
	return true, tests
}

// Kill is Survives turned round, for a merge that holds only a group of
// the candidates: the rows of blk are streamed past the filter's own, and
// every layout row a row of blk strictly dominates counts one more dominator
// in dominators (one counter per layout row, Len of them; a row dies at the
// band's count, and a dead row is not tested again). It only reads the
// filter. Rows of blk of another dimension are an error wrapping
// ErrCandidates.
func (f *Filter) Kill(blk *points.Block, dominators []int32) error {
	if blk.Len() == 0 {
		return nil
	}
	if blk.Dim() != f.Dim() {
		return fmt.Errorf("%w: %d-dimensional rows streamed past a %d-dimensional layout", ErrCandidates, blk.Dim(), f.Dim())
	}
	tests, offs := int64(0), make([]int, 0, f.Dim())
	for i := 0; i < blk.Len(); i++ {
		tests += f.kills(blk.Row(i), dominators, offs)
	}
	dominanceTests.Add(tests)
	return nil
}

// kills is Kill for one row q, returning the coordinate tests it ran; offs
// is the probe's scratch.
func (f *Filter) kills(q []float64, dominators []int32, offs []int) int64 {
	d := f.rows.Dim()
	q = q[:d]
	pr := f.dominated(q, rowSum(q), offs)
	kill, tests := int32(f.kill), int64(0)
	for w := pr.lo / 64; w*64 < pr.hi; w += 4 {
		a0, a1, a2, a3 := f.block(&pr, w)
		for k, word := range [4]uint64{a0, a1, a2, a3} {
			for ; word != 0; word &= word - 1 {
				j := (w+k)*64 + bits.TrailingZeros64(word)
				if dominators[j] >= kill {
					continue // dead already
				}
				tests++
				if dominates(q, f.rows.Row(j)[:d]) {
					dominators[j]++
				}
			}
		}
	}
	return tests
}

// Alive hands keep every layout row with fewer dominators than kill it, in
// layout order, each valid for the call only, and returns how many it kept.
func (f *Filter) Alive(dominators []int32, keep func(row []float64)) int {
	kept := 0
	for j, n := range dominators[:f.Len()] {
		if n < int32(f.kill) {
			keep(f.rows.Row(j))
			kept++
		}
	}
	return kept
}

// Share tests the filter's own rows task, task+tasks, task+2·tasks, … and
// hands keep each survivor, valid for the call only. It returns the number
// of rows tested. Shares 0 … tasks−1 cover every row once; the stride
// spreads every sum, cheap and dear, over all of them.
func (f *Filter) Share(task, tasks int, keep func(row []float64)) int {
	tested, tests, offs := 0, int64(0), make([]int, 0, f.Dim())
	for i := task; i < f.Len(); i += tasks {
		row := f.rows.Row(i)
		ok, n := f.survives(row, offs)
		if ok {
			keep(row)
		}
		tests += n
		tested++
	}
	dominanceTests.Add(tests)
	return tested
}

// Survivors filters every row, one share per goroutine, and returns the
// survivors in a fresh block.
func (f *Filter) Survivors(workers int) *points.Block {
	shares := make([]*points.Block, max(1, min(workers, f.Len())))
	fan.Out(len(shares), func(g int) {
		shares[g] = points.NewBlock(f.Dim(), 0)
		f.Share(g, len(shares), shares[g].AppendRow)
	})
	out := shares[0]
	for _, share := range shares[1:] {
		out.AppendBlock(share)
	}
	return out
}
