package skyline

// The merge. The paper funnels every local skyline through one reducer, a
// sequential BNL over their union; Ciaccia & Martinenghi name that last
// phase the limit of every partitioned scheme and parallelise it by cutting
// the union into groups that are only killed, never compared in a window.
// A row of the union belongs to the global skyline iff no row of the union
// strictly dominates it, whichever local skyline either came from — so the
// merge needs no window, no eviction and no order of arrival, only a fast
// answer to "which of these rows does q dominate?".
//
// q dominates p implies sum(q) <= sum(p): floating-point addition is
// monotone, though not strictly — (1e16, 0) and (1e16, 1) share a sum. So
// the candidates are sorted once by (sum, input index) (Sort) and cut into
// groups at sum splitters (Sorted.Cut, or a budget's equal counts): a row
// of group g can be dominated only by the rows before the group, by the
// rows after it whose sum ties with the group's largest, and by its own
// (Sorted.Input). A merge task lays its group out, streams those rows past
// it and then the group's own (MergeTask), and the groups' survivors, in
// group order, are the global skyline in (sum, index) order, whatever the
// number of groups.
//
// A group's layout is Tan, Eng & Ooi's Bitmap test (VLDB 2001) on the sum
// order. Each dimension is cut into levels by the window's thermometer
// thresholds (window.go), fitted once to all the candidates and shared by
// every group, and for every (dimension i, level k) one bitmap marks the
// group's rows whose level in i exceeds k. If q dominates p, p's level is
// at least q's in every dimension, so the rows q may dominate are those at
// or past q's sum in every bitmap (i, level_i(q) − 1): d ANDs rule out 64
// rows at a time, and only the rows left — exactly those a signature test
// would let through — are tested coordinate by coordinate. Each row counts
// its dominators until it dies, and a dead row is not tested again. A row
// of the group that is dead when its own turn to be streamed comes is not
// walked at all: each of the dominators that killed it was streamed before
// it and dominates every row it does, so those rows are dead already —
// under the k-skyband too, where k such dominators killed it.
//
// BenchmarkMergeFilter, 13 k QWS d=10 candidates on a 2-vCPU Xeon: the
// merge on two goroutines (sort, layouts and kill walks) takes 19–22 ms,
// at 29.7 coordinate tests a row; EXPERIMENTS.md "One merge" has the rest.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/fan"
	"repro/internal/points"
)

// ErrCandidates is wrapped by every error of the merge over an unusable
// candidate set: empty, of another dimension than the merge's, or cut into
// a task input that is not one.
var ErrCandidates = errors.New("skyline: unusable candidate set")

// otherDimension is the error of candidate rows of dimension got in a
// merge of dim.
func otherDimension(got, dim int) error {
	return fmt.Errorf("%w: %d-dimensional rows in a %d-dimensional merge", ErrCandidates, got, dim)
}

// Sorted is a merge's candidates in the merge's order, with the level
// thresholds every group's layout shares.
type Sorted struct {
	// Rows holds the candidates ascending by (sum, input index).
	Rows *points.Block
	// Levels holds the thresholds fitted to all of Rows: row k is every
	// dimension's k-th threshold, ascending in k.
	Levels *points.Block
	sums   []float64 // sums[j] is row j's coordinate sum
}

// filterLevels is the thresholds per dimension a layout of d-dimensional
// rows keeps: the window's, and at least the median where the window's
// uint64 signature leaves none.
func filterLevels(d int) int { return max(1, min(64/d, maxLevels)) }

// Sort lays the rows of blocks, taken as one sequence, block after block,
// out in the merge's order, and fits the levels to them, on builders
// goroutines. It is a function of that row sequence alone: two sorts of the
// same rows, however they are cut into blocks and by however many builders,
// agree row for row. Empty blocks are skipped; no rows, or a block of
// another dimension than dim, is an error wrapping ErrCandidates.
func Sort(blocks []*points.Block, dim, builders int) (*Sorted, error) {
	src := rowSeq{ends: make([]int, 0, len(blocks))}
	n := 0
	for _, b := range blocks {
		if b.Len() == 0 {
			continue
		}
		if b.Dim() != dim {
			return nil, otherDimension(b.Dim(), dim)
		}
		n += b.Len()
		src.blocks, src.ends = append(src.blocks, b), append(src.ends, n)
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: no rows", ErrCandidates)
	}
	builders = max(1, min(builders, n))
	rows, sums := sortRows(src, n, dim, builders)
	// The window's fit (fitLevels), a share of the dimensions a builder.
	L := filterLevels(dim)
	levels := points.NewBlock(dim, L)
	levels.Extend(dim, L)
	fan.Out(min(builders, dim), func(share int) {
		lo, hi := fan.Cut(dim, min(builders, dim), share)
		var col []float64
		for i := lo; i < hi; i++ {
			col = sampleColumn(rows, i, col)
			for k := 0; k < L; k++ {
				levels.Row(k)[i] = col[(k+1)*len(col)/(L+1)]
			}
		}
	})
	return &Sorted{Rows: rows, Levels: levels, sums: sums}, nil
}

// Cut cuts the rows into k groups (at most one a row) of about equal pair
// work and returns their ends: group g is Rows[ends[g−1]:ends[g]]. A
// group's task meets the rows before it and its own, each against the
// group's rows at or past its sum, so its work grows with hi² − lo²: the
// ends fall near n·√(g/k), and the groups shrink as the sums rise.
func (s *Sorted) Cut(k int) []int {
	n := s.Rows.Len()
	k = max(1, min(k, n))
	ends := make([]int, k)
	for g := range ends {
		end := int(math.Round(float64(n) * math.Sqrt(float64(g+1)/float64(k))))
		lo := 1
		if g > 0 {
			lo = ends[g-1] + 1
		}
		ends[g] = min(max(end, lo), n-(k-1-g))
	}
	return ends
}

// Input is merge task g's input over groups cut at ends (ascending, the
// last n): the levels, group g, and every row outside the group that can
// dominate one of its rows — the rows before it, then those after it whose
// sum ties with its largest — in blocks of at most piece rows (piece < 1:
// a block a range). The blocks are views of s.
func (s *Sorted) Input(ends []int, g, piece int) []*points.Block {
	lo, hi := 0, ends[g]
	if g > 0 {
		lo = ends[g-1]
	}
	top := s.sums[hi-1]
	reach := hi + sort.Search(len(s.sums)-hi, func(j int) bool { return s.sums[hi+j] > top })
	in := []*points.Block{s.Levels, s.Rows.Slice(lo, hi)}
	for _, r := range [2][2]int{{0, lo}, {hi, reach}} {
		step := r[1] - r[0]
		if piece > 0 {
			step = piece
		}
		for a := r[0]; a < r[1]; a += step {
			in = append(in, s.Rows.Slice(a, min(a+step, r[1])))
		}
	}
	return in
}

// MergeTask is one task of the merge over dim-dimensional rows, reading its
// input as Sorted.Input cuts it: the levels, the task's group, then the
// rows to stream past the group. It lays the group out, kills it with every
// streamed block and then with the group's own rows. It returns a copy of
// the group's rows with fewer dominators than band (band 0: than one), in
// its order, sized once; the group's rows; and the peak it counts: the
// layout (LayoutBytes), the largest block streamed and the rows kept. Input
// of another dimension, levels that are not the merge's, and an input
// without a group are errors wrapping ErrCandidates.
func MergeTask(input func(each func(*points.Block) error) error, dim, band int) (kept *points.Block, rows int, peak int64, err error) {
	var (
		levels   *points.Block
		g        *group
		streamed int
	)
	err = input(func(blk *points.Block) (err error) {
		if g != nil {
			streamed = max(streamed, blk.Len())
			return g.kill(blk)
		}
		if blk.Dim() != dim {
			return otherDimension(blk.Dim(), dim)
		}
		if levels == nil {
			levels = blk
			return nil
		}
		g, err = newGroup(levels, blk, band)
		return err
	})
	if err == nil && g == nil {
		err = fmt.Errorf("%w: a merge task without a group", ErrCandidates)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	kept = g.alive()
	return kept, g.rows.Len(), LayoutBytes(g.rows.Len(), dim) + int64(streamed+kept.Len())*int64(dim)*8, nil
}

// group is one group of the candidates laid out to be killed.
type group struct {
	rows   *points.Block // the group, ascending by (sum, input index)
	sums   []float64     // sums[j] is row j's coordinate sum
	thr    []float64     // levels ascending thresholds per dimension, dimension-major
	levels int           // thresholds per dimension
	words  int           // 64-row words per bitmap
	// ge holds bitmap (i, k), the rows whose level in dimension i exceeds
	// k, at ge[(i*levels+k)*words:]: bit j%64 of its word j/64 is row j.
	// Three words of padding follow the last bitmap, so that four words
	// can be read from any word of any bitmap.
	ge         []uint64
	dead       []uint64 // bit j%64 of word j/64 is set once row j has died, with the same padding
	dies       int32    // dominators a row dies of
	dominators []int32  // dominators[j] counts row j's, up to dies
}

// newGroup lays out the rows of blk under levels (Sorted.Levels of blk's
// dimension) for band: 0 kills a row at its first dominator, k >= 1 at its
// k-th. Rows already in the merge's order stay in blk, which must not
// change while the group is in use.
func newGroup(levels, blk *points.Block, band int) (*group, error) {
	n, d := blk.Len(), blk.Dim()
	L, words := filterLevels(d), (n+63)/64
	if n == 0 {
		return nil, fmt.Errorf("%w: an empty group", ErrCandidates)
	}
	if levels.Len() != L {
		return nil, fmt.Errorf("%w: %d levels for %d-dimensional rows, want %d", ErrCandidates, levels.Len(), d, L)
	}
	g := &group{thr: make([]float64, d*L), levels: L, words: words, ge: make([]uint64, d*L*words+3),
		dead: make([]uint64, words+3), dies: int32(max(band, 1)), dominators: make([]int32, n)}
	for k := 0; k < L; k++ {
		for i, v := range levels.Row(k) {
			if k > 0 && !(v >= g.thr[i*L+k-1]) {
				return nil, fmt.Errorf("%w: levels of dimension %d not ascending", ErrCandidates, i)
			}
			g.thr[i*L+k] = v
		}
	}
	// A group cut from a sort arrives in the merge's order, and a layout
	// only reads its rows: they are laid out where they lie.
	g.rows, g.sums = blk, make([]float64, n)
	for j := range g.sums {
		g.sums[j] = rowSum(blk.Row(j))
	}
	if !slices.IsSortedFunc(g.sums, cmp.Compare[float64]) {
		g.rows, g.sums = sortRows(rowSeq{blocks: []*points.Block{blk}, ends: []int{n}}, n, d, 1)
	}
	for j := 0; j < n; j++ {
		bit := uint64(1) << (j % 64)
		for i, v := range g.rows.Row(j) {
			bm := g.ge[i*L*words+j/64:]
			for k := range g.level(i, v) {
				bm[k*words] |= bit
			}
		}
	}
	return g, nil
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

// sortRows copies the n d-dimensional rows of src in the merge's order,
// with their sums, on builders goroutines.
func sortRows(src rowSeq, n, d, builders int) (*points.Block, []float64) {
	sums := make([]float64, n)
	fan.Out(builders, func(share int) {
		lo, hi := fan.Cut(n, builders, share)
		for i := lo; i < hi; i++ {
			sums[i] = rowSum(src.row(i))
		}
	})
	order := sumOrder(sums)
	rows, sorted := points.NewBlock(d, n), make([]float64, n)
	rows.Extend(d, n)
	fan.Out(builders, func(share int) {
		lo, hi := fan.Cut(n, builders, share)
		for j := lo; j < hi; j++ {
			copy(rows.Row(j), src.row(int(order[j])))
			sorted[j] = sums[order[j]]
		}
	})
	return rows, sorted
}

// sumOrder returns the indices of sums in the merge's order: ascending by
// sum — NaN first, as cmp.Compare has it, and −0 before +0 — then by
// index. It is a stable radix sort of the sums' bits, mapped to integers
// that order as the sums do, a byte a pass, skipping the bytes every key
// shares.
func sumOrder(sums []float64) []int32 {
	n := len(sums)
	key, idx := make([]uint64, n), make([]int32, n)
	var counts [8][256]int
	for i, s := range sums {
		k := math.Float64bits(s)
		switch {
		case s != s:
			k = 0
		case k>>63 == 1:
			k = ^k
		default:
			k |= 1 << 63
		}
		key[i], idx[i] = k, int32(i)
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	key2, idx2 := make([]uint64, n), make([]int32, n)
	for b := range counts {
		c := &counts[b]
		if c[byte(key[0]>>(8*b))] == n {
			continue
		}
		at := 0
		for v, m := range c {
			c[v], at = at, at+m
		}
		for i, k := range key {
			v := byte(k >> (8 * b))
			key2[c[v]], idx2[c[v]] = k, idx[i]
			c[v]++
		}
		key, key2, idx, idx2 = key2, key, idx2, idx
	}
	return idx
}

// rowSum is a row's coordinate sum, added in dimension order.
func rowSum(p []float64) (sum float64) {
	for _, v := range p {
		sum += v
	}
	return sum
}

// LayoutBytes is what a group of n d-dimensional rows holds once laid out:
// every row's coordinates, sum and dominator count, and its bitmaps, each
// rounded up to whole 64-row words, with their padding. A budget sizes a
// group by it before there is one.
func LayoutBytes(n, d int) int64 {
	return int64(n)*int64(d*8+12) + (int64(d*filterLevels(d))*int64((n+63)/64)+3)*8
}

// level is the number of dimension i's thresholds v exceeds, counted
// without a branch on each: a row's level is as likely one value as another.
func (g *group) level(i int, v float64) (k int) {
	for _, t := range g.thr[i*g.levels : (i+1)*g.levels] {
		if v > t {
			k++
		}
	}
	return k
}

// dominated is the probe for the rows q may dominate, whose sum is qsum:
// those from row lo on — the first whose sum is q's or more — with no level
// below q's, inside bitmap (i, level_i(q) − 1), at offs, for every
// dimension above its bottom level. offs is scratch, reused.
func (g *group) dominated(q []float64, qsum float64, offs []int) (lo int, _ []int) {
	offs = offs[:0]
	for i, v := range q {
		if k := g.level(i, v); k > 0 {
			offs = append(offs, (i*g.levels+k-1)*g.words)
		}
	}
	return sort.Search(len(g.sums), func(j int) bool { return g.sums[j] >= qsum }), offs
}

// block returns the live rows of words w … w+3 that the probe (lo, offs)
// keeps, a word each: four words per pass over its bitmaps. Words past a
// bitmap's last are the next bitmap's, or padding, and hold rows past the
// group's last: they are masked.
func (g *group) block(lo int, offs []int, w int) (a0, a1, a2, a3 uint64) {
	hi, base, dead := len(g.sums)-w*64, lo-w*64, g.dead[w:w+4:w+4]
	a0 = below(hi) &^ below(base) &^ dead[0]
	a1 = below(hi-64) &^ below(base-64) &^ dead[1]
	a2 = below(hi-128) &^ below(base-128) &^ dead[2]
	a3 = below(hi-192) &^ below(base-192) &^ dead[3]
	ge := g.ge
	for _, o := range offs {
		if a0|a1|a2|a3 == 0 {
			break // no row left to rule out
		}
		b := ge[o+w : o+w+4 : o+w+4]
		a0 &= b[0]
		a1 &= b[1]
		a2 &= b[2]
		a3 &= b[3]
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

// kill streams the rows of blk past the group: every live row a row of blk
// strictly dominates counts one more dominator, and dies at the band's
// count. Coordinate-equal rows do
// not dominate each other. Rows of another dimension are an error wrapping
// ErrCandidates.
func (g *group) kill(blk *points.Block) error {
	if blk.Len() == 0 {
		return nil
	}
	if blk.Dim() != g.rows.Dim() {
		return fmt.Errorf("%w: %d-dimensional rows streamed past a %d-dimensional layout", ErrCandidates, blk.Dim(), g.rows.Dim())
	}
	tests, offs := int64(0), make([]int, 0, blk.Dim())
	for i := 0; i < blk.Len(); i++ {
		tests += g.kills(blk.Row(i), offs)
	}
	dominanceTests.Add(tests)
	return nil
}

// kills is kill for one row q, returning the coordinate tests it ran; offs
// is the probe's scratch.
func (g *group) kills(q []float64, offs []int) int64 {
	d := g.rows.Dim()
	q = q[:d]
	lo, offs := g.dominated(q, rowSum(q), offs)
	tests := int64(0)
	for w := lo / 64; w*64 < len(g.sums); w += 4 {
		a0, a1, a2, a3 := g.block(lo, offs, w)
		for k, word := range [4]uint64{a0, a1, a2, a3} {
			for ; word != 0; word &= word - 1 {
				j := (w+k)*64 + bits.TrailingZeros64(word)
				tests++
				if dominates(q, g.rows.Row(j)[:d]) {
					if g.dominators[j]++; g.dominators[j] == g.dies {
						g.dead[j/64] |= 1 << (j % 64)
					}
				}
			}
		}
	}
	return tests
}

// alive streams the group's own rows past it, in its order — skipping the
// dead, whose killers came before them and have killed every row they
// would — then returns a copy of the live rows, in its order, in a block
// allocated at their count. It is called once, after the last kill.
func (g *group) alive() *points.Block {
	tests, offs := int64(0), make([]int, 0, g.rows.Dim())
	for j := range g.dominators {
		if g.dead[j/64]>>(j%64)&1 == 0 {
			tests += g.kills(g.rows.Row(j), offs)
		}
	}
	dominanceTests.Add(tests)
	live := len(g.dominators)
	for _, w := range g.dead {
		live -= bits.OnesCount64(w)
	}
	kept := points.NewBlock(g.rows.Dim(), live)
	for j, n := range g.dominators {
		if n < g.dies {
			kept.AppendRow(g.rows.Row(j))
		}
	}
	return kept
}
