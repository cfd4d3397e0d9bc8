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
// A Filter answers it from a layout built once and never written again:
//
//   - rows are grouped by a mask with one bit per dimension (the first
//     maskBits of them), set when the coordinate is above the candidates'
//     median. If q dominates p then q[i] <= p[i] everywhere, so every bit
//     set in q's mask is set in p's: p's dominators live only in the groups
//     whose mask is a subset of p's, and the rest are never visited;
//   - inside a group rows ascend by coordinate sum. q dominates p implies
//     sum(q) <= sum(p) — floating-point addition is monotone, though not
//     strictly: (1e16, 0) and (1e16, 1) share a sum — so the walk through a
//     group stops at the first sum above p's, and meets the group's
//     strongest dominators first;
//   - every row carries a window signature (window.go) fitted to the whole
//     set, so most of the pairs that are left are dismissed by one AND-NOT.
//
// Both orders earn their keep (BenchmarkMergeFilter, 13 k QWS d=10
// candidates, 2 goroutines): one sum-ordered group filters in 69 ms, the
// mask groups in 31–36 plus a 7–8 ms build; DESIGN.md has the rest.
//
// Under a memory budget the same layout is read the other way round. A
// merge task lays out only a group of the candidates and streams every
// candidate past it (Kill): a candidate q can dominate only rows in the
// groups whose mask is a superset of q's, whose sum is at least q's and
// whose signature covers q's, and each layout row counts its dominators
// until it dies.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/fan"
	"repro/internal/points"
)

// ErrCandidates is wrapped by every error NewFilter returns: the candidate
// set is empty or mixes dimensions.
var ErrCandidates = errors.New("skyline: unusable candidate set")

const (
	// maxMaskBits caps the mask: a row whose every bit is set visits all
	// 2^bits groups, and past twelve the table outgrows what it prunes.
	maxMaskBits = 12
	// groupRows is the average group size below which another mask bit
	// stops paying: a few hundred candidates stay in one sum-ordered group.
	groupRows = 4
)

// Filter is a candidate set laid out to answer Survives. It is read-only
// once built: any number of goroutines may share one.
type Filter struct {
	win   window    // the layout and its thresholds; never scanned, never added to
	keys  []rowKey  // one per row of the layout
	med   []float64 // the mask's thresholds, one per leading dimension
	start []int32   // rows [start[g], start[g+1]) carry mask g
	kill  int       // dominators a row dies of
}

// rowKey is what the walk reads of a row before it reads the row: side by
// side, so that a group is one stream of memory.
type rowKey struct {
	sum float64 // coordinate sum
	sig uint64  // window signature; 0 when the dimension leaves no bit to spend
}

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

// layOut builds the filter over the n d-dimensional rows of src. Every
// parallel step writes ranges that no other share touches, and none reads
// what a share of the same step writes, so the layout does not depend on
// the number of builders.
func layOut(src rowSeq, n, d, band, builders int) *Filter {
	bits := maskBits(n, d)
	f := &Filter{med: make([]float64, bits), keys: make([]rowKey, n), start: make([]int32, 1<<bits+1), kill: max(band, 1)}
	// The mask's thresholds: medians of fitSample evenly strided rows.
	stride := max(1, n/fitSample)
	col := make([]float64, n/stride)
	for i := range f.med {
		for j := range col {
			col[j] = src.row(j * stride)[i]
		}
		sort.Float64s(col)
		f.med[i] = col[len(col)/2]
	}
	// Keys over row ranges, then a counting sort by mask.
	masks, sums := make([]uint16, n), make([]float64, n)
	fan.Out(builders, func(share int) {
		lo, hi := fan.Cut(n, builders, share)
		for i := lo; i < hi; i++ {
			masks[i], sums[i] = f.key(src.row(i))
		}
	})
	for _, m := range masks {
		f.start[m+1]++
	}
	for g := 1; g < len(f.start); g++ {
		f.start[g] += f.start[g-1]
	}
	order, next := make([]int32, n), slices.Clone(f.start)
	for i, m := range masks {
		order[next[m]] = int32(i)
		next[m]++
	}
	// Each group by sum — ties keep input order — and its rows into place,
	// over ranges of whole groups that hold about the same number of rows.
	rows := points.NewBlock(d, n)
	rows.Extend(d, n)
	groups := len(f.start) - 1
	bound := func(share int) int {
		row, _ := fan.Cut(n, builders, share)
		return sort.Search(groups, func(g int) bool { return int(f.start[g]) >= row })
	}
	fan.Out(builders, func(share int) {
		for g, end := bound(share), bound(share+1); g < end; g++ {
			group := order[f.start[g]:f.start[g+1]]
			slices.SortFunc(group, func(a, b int32) int { return cmp.Or(cmp.Compare(sums[a], sums[b]), cmp.Compare(a, b)) })
			for k, i := range group {
				j := int(f.start[g]) + k
				copy(rows.Row(j), src.row(int(i)))
				f.keys[j].sum = sums[i]
			}
		}
	})
	// Signatures over row ranges, under thresholds fitted to the layout.
	f.win.rows = rows
	if f.win.fitThresholds(rows) {
		fan.Out(builders, func(share int) {
			lo, hi := fan.Cut(n, builders, share)
			for j := lo; j < hi; j++ {
				f.keys[j].sig = f.win.sign(rows.Row(j))
			}
		})
	}
	return f
}

// maskBits is the number of mask bits a layout of n d-dimensional rows
// spends: one per leading dimension, while the groups average groupRows.
func maskBits(n, d int) int {
	bits := min(d, maxMaskBits)
	for bits > 0 && n>>bits < groupRows {
		bits--
	}
	return bits
}

// rowKeyBytes is the size of a rowKey.
const rowKeyBytes = 16

// LayoutBytes is what a filter over n d-dimensional rows holds: every row's
// coordinates and key, and the group table. A budget sizes a layout by it
// before there is one to ask (Filter.Bytes).
func LayoutBytes(n, d int) int64 {
	return int64(n)*int64(d*8+rowKeyBytes) + int64(1<<maskBits(n, d)+1)*4
}

// Bytes is LayoutBytes of the filter's rows.
func (f *Filter) Bytes() int64 { return LayoutBytes(f.Len(), f.Dim()) }

// key is a row's group mask and coordinate sum.
func (f *Filter) key(p []float64) (mask uint16, sum float64) {
	for i, m := range f.med {
		if p[i] > m {
			mask |= 1 << i
		}
	}
	for _, v := range p {
		sum += v
	}
	return mask, sum
}

// Len returns the number of candidate rows.
func (f *Filter) Len() int { return len(f.keys) }

// Dim returns the candidates' dimension.
func (f *Filter) Dim() int { return f.win.rows.Dim() }

// Survives reports whether row — of the filter's dimension; one of its own
// rows or any other — is dominated by fewer candidates than kill it.
// Coordinate-equal rows do not dominate each other: duplicates all survive.
func (f *Filter) Survives(row []float64) bool {
	ok, tests := f.survives(row)
	dominanceTests.Add(tests)
	return ok
}

// survives is Survives with the coordinate tests it ran left to the caller
// to publish. It visits the groups whose mask is a subset of p's in
// ascending order — the all-low group, which holds the strongest
// dominators, first — and in each the rows whose sum does not exceed p's.
func (f *Filter) survives(p []float64) (bool, int64) {
	d := f.win.rows.Dim()
	p = p[:d]
	pm, psum := f.key(p)
	var psig uint64
	if f.win.levels > 0 {
		psig = f.win.sign(p)
	}
	keys, start := f.keys, f.start
	tests, found := int64(0), 0
	for g := uint16(0); ; g = (g - pm) & pm { // the next sub-mask of pm
		group := keys[start[g]:start[g+1]]
		for j := range group {
			if group[j].sum > psum {
				break
			}
			if group[j].sig&^psig != 0 {
				continue // the row exceeds a threshold p does not
			}
			tests++
			q := f.win.rows.Row(int(start[g]) + j)[:d]
			strict, k := false, 0
			for ; k < d && q[k] <= p[k]; k++ {
				strict = strict || q[k] < p[k]
			}
			if k == d && strict {
				if found++; found == f.kill {
					return false, tests
				}
			}
		}
		if g == pm {
			return true, tests
		}
	}
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
	tests := int64(0)
	for i := 0; i < blk.Len(); i++ {
		tests += f.kills(blk.Row(i), dominators)
	}
	dominanceTests.Add(tests)
	return nil
}

// kills is Kill for one row q, returning the coordinate tests it ran. If q
// dominates p then every mask bit of q's is set in p's, sum(q) <= sum(p),
// and — the thresholds are a thermometer, whichever rows they were fitted
// to — every signature bit of q's is set in p's. So it visits the groups
// whose mask is a superset of q's and walks each from its largest sum down
// to q's: the ascending group read backwards needs no search for where q's
// sum falls.
func (f *Filter) kills(q []float64, dominators []int32) int64 {
	d := f.win.rows.Dim()
	q = q[:d]
	qm, qsum := f.key(q)
	var qsig uint64
	if f.win.levels > 0 {
		qsig = f.win.sign(q)
	}
	keys, start, kill := f.keys, f.start, int32(f.kill)
	last := uint16(len(start) - 2) // the mask with every bit set
	tests := int64(0)
	for g := qm; ; g = (g + 1) | qm { // the next superset of qm
		for j, lo := int(start[g+1])-1, int(start[g]); j >= lo && keys[j].sum >= qsum; j-- {
			if qsig&^keys[j].sig != 0 || dominators[j] >= kill {
				continue // q exceeds a threshold p does not, or p is dead
			}
			tests++
			p := f.win.rows.Row(j)[:d]
			strict, k := false, 0
			for ; k < d && q[k] <= p[k]; k++ {
				strict = strict || q[k] < p[k]
			}
			if k == d && strict {
				dominators[j]++
			}
		}
		if g == last {
			return tests
		}
	}
}

// Alive hands keep every layout row with fewer dominators than kill it, in
// layout order, each valid for the call only, and returns how many it kept.
func (f *Filter) Alive(dominators []int32, keep func(row []float64)) int {
	kept := 0
	for j, n := range dominators[:f.Len()] {
		if n < int32(f.kill) {
			keep(f.win.rows.Row(j))
			kept++
		}
	}
	return kept
}

// Share tests the filter's own rows task, task+tasks, task+2·tasks, … and
// hands keep each survivor, valid for the call only. It returns the number
// of rows tested. Shares 0 … tasks−1 cover every row once; the stride
// spreads every group, cheap and dear, over all of them.
func (f *Filter) Share(task, tasks int, keep func(row []float64)) int {
	tested, tests := 0, int64(0)
	for i := task; i < f.Len(); i += tasks {
		row := f.win.rows.Row(i)
		ok, n := f.survives(row)
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
