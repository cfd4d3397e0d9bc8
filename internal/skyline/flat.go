package skyline

// This file holds the flat-memory skyline kernels: the same BNL/SFS
// algorithms as skyline.go, re-expressed over points.Block so the hottest
// loop in the repository — the pairwise dominance test — runs over one
// contiguous []float64 with a dimension-specialized comparison selected
// once per block rather than a generic length-checked loop per pair. The
// classic points.Set kernels remain as the reference implementation every
// test compares against; both produce identical skylines on finite,
// uniform-dimensional input.

import (
	"sort"
	"sync/atomic"

	"repro/internal/points"
)

// Relation is the outcome of one pairwise dominance test between two
// coordinate rows under minimization.
type Relation int8

const (
	// Incomparable: neither row dominates and the rows differ.
	Incomparable Relation = iota
	// LeftDominates: the first row strictly dominates the second.
	LeftDominates
	// RightDominates: the second row strictly dominates the first.
	RightDominates
	// Equal: the rows are coordinate-wise identical.
	Equal
)

// relFunc computes the Relation of two equal-length rows. Kernels assume
// finite coordinates (the library validates at pipeline entry); NaN makes
// both comparisons false and reads as Equal.
type relFunc func(a, b []float64) Relation

// verdict folds the two "worse somewhere" flags into a Relation.
func verdict(aWorse, bWorse bool) Relation {
	switch {
	case aWorse && bWorse:
		return Incomparable
	case bWorse:
		return LeftDominates
	case aWorse:
		return RightDominates
	default:
		return Equal
	}
}

// relGeneric is the any-dimension fallback. Two single-branch scans, each
// stopping at its first proof, beat one combined loop on random data: each
// scan's branch is almost always not-taken until the exit, so both predict
// well, and each expects to stop within a couple of elements. The re-slice
// of b hoists its per-iteration bounds check into one comparison up front.
func relGeneric(a, b []float64) Relation {
	b = b[:len(a)]
	var aw, bw bool
	for i, av := range a {
		if av > b[i] {
			aw = true
			break
		}
	}
	for i, av := range a {
		if av < b[i] {
			bw = true
			break
		}
	}
	return verdict(aw, bw)
}

// The d=2..8 kernels are monomorphized: the slice re-slicing hoists every
// bounds check to one comparison and the fixed trip count lets the
// compiler keep the flags in registers. d=2 and d=3 run the full scan
// (cheaper than predicting the exit branch); from d=4 up the kernels bail
// on the first proof of incomparability, the common case inside BNL
// windows, where the early rows usually differ in both directions.

func rel2(a, b []float64) Relation {
	a, b = a[:2], b[:2]
	var aw, bw bool
	if a[0] > b[0] {
		aw = true
	} else if a[0] < b[0] {
		bw = true
	}
	if a[1] > b[1] {
		aw = true
	} else if a[1] < b[1] {
		bw = true
	}
	return verdict(aw, bw)
}

func rel3(a, b []float64) Relation {
	a, b = a[:3], b[:3]
	var aw, bw bool
	for i := 0; i < 3; i++ {
		if a[i] > b[i] {
			aw = true
		} else if a[i] < b[i] {
			bw = true
		}
	}
	return verdict(aw, bw)
}

func rel4(a, b []float64) Relation {
	a, b = a[:4], b[:4]
	var aw, bw bool
	for i := 0; i < 4; i++ {
		if a[i] > b[i] {
			if bw {
				return Incomparable
			}
			aw = true
		} else if a[i] < b[i] {
			if aw {
				return Incomparable
			}
			bw = true
		}
	}
	return verdict(aw, bw)
}

func rel5(a, b []float64) Relation {
	a, b = a[:5], b[:5]
	var aw, bw bool
	for i := 0; i < 5; i++ {
		if a[i] > b[i] {
			if bw {
				return Incomparable
			}
			aw = true
		} else if a[i] < b[i] {
			if aw {
				return Incomparable
			}
			bw = true
		}
	}
	return verdict(aw, bw)
}

func rel6(a, b []float64) Relation {
	a, b = a[:6], b[:6]
	var aw, bw bool
	for i := 0; i < 6; i++ {
		if a[i] > b[i] {
			if bw {
				return Incomparable
			}
			aw = true
		} else if a[i] < b[i] {
			if aw {
				return Incomparable
			}
			bw = true
		}
	}
	return verdict(aw, bw)
}

func rel7(a, b []float64) Relation {
	a, b = a[:7], b[:7]
	var aw, bw bool
	for i := 0; i < 7; i++ {
		if a[i] > b[i] {
			if bw {
				return Incomparable
			}
			aw = true
		} else if a[i] < b[i] {
			if aw {
				return Incomparable
			}
			bw = true
		}
	}
	return verdict(aw, bw)
}

func rel8(a, b []float64) Relation {
	a, b = a[:8], b[:8]
	var aw, bw bool
	for i := 0; i < 8; i++ {
		if a[i] > b[i] {
			if bw {
				return Incomparable
			}
			aw = true
		} else if a[i] < b[i] {
			if aw {
				return Incomparable
			}
			bw = true
		}
	}
	return verdict(aw, bw)
}

var relByDim = [...]relFunc{2: rel2, 3: rel3, 4: rel4, 5: rel5, 6: rel6, 7: rel7, 8: rel8}

// RelationKernel returns the dominance-relation kernel for rows of
// dimension d: a monomorphized comparison for d = 2..8, the generic
// early-exit loop otherwise. The selection happens once per block, not
// once per pair — that is the whole trick.
func RelationKernel(d int) func(a, b []float64) Relation {
	if d >= 2 && d < len(relByDim) {
		return relByDim[d]
	}
	return relGeneric
}

// dominanceTests counts every pairwise coordinate test executed by the
// flat kernels and the merge filter, process-wide. A pair the window's
// signatures prove incomparable is skipped, not tested, and is not
// counted. Kernels accumulate locally and publish once per call, so the
// atomic stays off the inner loop; package driver bridges deltas into the
// telemetry registry as skyline_dominance_tests_total.
var dominanceTests atomic.Int64

// DominanceTests returns the process-wide flat-kernel dominance-test
// count. Monotone; useful for Fig. 6-style attributions and for asserting
// in tests that the flat path actually ran.
func DominanceTests() int64 { return dominanceTests.Load() }

// BlockFunc is the flat-path kernel signature: it returns a new block
// holding the skyline of the input block. The input is not mutated; row
// order of the result is unspecified (eviction is swap-delete).
type BlockFunc func(*points.Block) *points.Block

// BlockBNL is block-nested-loops over a flat block: the window is itself
// a block reused as scratch, evictions swap-delete instead of rebuilding
// the window slice, and pairs whose signatures prove them incomparable are
// never compared (see window.go).
func BlockBNL(b *points.Block) *points.Block {
	win := newWindow(b.Dim(), 16)
	n := b.Len()
	for i := 0; i < n; i++ {
		win.add(b.Row(i))
	}
	win.publish()
	return win.rows
}

// BlockSFS is sort-filter-skyline over a flat block: the monotone sum key
// is computed once per point into a slice (not inside the sort
// comparator), the permutation is sorted, and the single filtering pass
// needs no evictions because a point can only be dominated by one with a
// strictly smaller key.
func BlockSFS(b *points.Block) *points.Block {
	d := b.Dim()
	rel := RelationKernel(d)
	n := b.Len()
	keys := make([]float64, n)
	order := make([]int, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for _, v := range b.Row(i) {
			s += v
		}
		keys[i] = s
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	win := points.NewBlock(d, 16)
	tests := int64(0)
	for _, i := range order {
		p := b.Row(i)
		dominated := false
		for j := 0; j < win.Len(); j++ {
			tests++
			if rel(win.Row(j), p) == LeftDominates {
				dominated = true
				break
			}
		}
		if !dominated {
			win.AppendRow(p)
		}
	}
	dominanceTests.Add(tests)
	return win
}

// BlockByAlgorithm returns the flat kernel implementing a. Algorithms
// without a flat variant (D&C, Naive) run the classic kernel through
// BlockKernel's Set round-trip, keeping the BlockFunc signature total.
func BlockByAlgorithm(a Algorithm) BlockFunc {
	switch a {
	case BNLAlgorithm:
		return BlockBNL
	case SFSAlgorithm:
		return BlockSFS
	default:
		return BlockKernel(ByAlgorithm(a))
	}
}

// BlockKernel adapts a Set-typed kernel to the block signature: the block
// is viewed as a set, the kernel runs, and its survivors are packed back
// into a block. It is how kernels that carry their own state (the R-tree
// BBS) or have no flat variant ride the framed pipeline.
func BlockKernel(classic Func) BlockFunc {
	return func(b *points.Block) *points.Block {
		out, ok := points.BlockOf(classic(b.ToSet()))
		if !ok {
			panic("skyline: classic kernel produced mixed-dimension set")
		}
		return out
	}
}

// flatten runs a block kernel over a point set, falling back to the
// classic kernel when the set cannot be represented as a block (mixed
// dimensionalities, which only the classic kernels tolerate).
func flatten(s points.Set, block BlockFunc, classic Func) points.Set {
	b, ok := points.BlockOf(s)
	if !ok {
		return classic(s)
	}
	return block(b).ToSet()
}

// FlatBNL computes the skyline with the flat block BNL. Unlike BNL it
// copies the input into contiguous storage first and returns fresh points;
// result order is unspecified.
func FlatBNL(s points.Set) points.Set { return flatten(s, BlockBNL, BNL) }

// FlatSFS computes the skyline with the flat block SFS.
func FlatSFS(s points.Set) points.Set { return flatten(s, BlockSFS, SFS) }

// ByAlgorithmFlat returns the flat-memory kernel for a where one exists
// (BNL, SFS), the classic kernel otherwise — the Set-typed selection for
// callers that hold a point set rather than a block.
func ByAlgorithmFlat(a Algorithm) Func {
	switch a {
	case BNLAlgorithm:
		return FlatBNL
	case SFSAlgorithm:
		return FlatSFS
	default:
		return ByAlgorithm(a)
	}
}
