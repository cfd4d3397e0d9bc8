package points

import "fmt"

// Block stores n points of one shared dimension d as a single contiguous
// []float64 of length n×d (structure-of-arrays by row). It is the flat-
// memory representation used by the skyline kernels: identity is the row
// index, dominance tests touch one cache line per small-d point, and
// eviction is a swap-delete instead of a slice rebuild. A Block is
// append-and-truncate mutable; unlike Point values handed to the classic
// kernels, rows returned by Row are views that move when the block is
// mutated, so callers must not hold Row slices across SwapDelete/Truncate.
type Block struct {
	dim    int
	coords []float64
}

// NewBlock returns an empty block of dimension dim with capacity for
// capPoints points. dim may be 0, in which case the first AppendRow fixes
// the dimension.
func NewBlock(dim, capPoints int) *Block {
	if capPoints < 0 {
		capPoints = 0
	}
	return &Block{dim: dim, coords: make([]float64, 0, dim*capPoints)}
}

// BlockOf copies a point set into a fresh block. ok is false when the set
// mixes dimensionalities (the classic Set kernels tolerate that; a block
// cannot represent it).
func BlockOf(s Set) (b *Block, ok bool) {
	d := s.Dim()
	b = &Block{dim: d, coords: make([]float64, 0, d*len(s))}
	for _, p := range s {
		if len(p) != d {
			return nil, false
		}
		b.coords = append(b.coords, p...)
	}
	return b, true
}

// Dim returns the per-point dimension (0 until the first append on a
// dimension-inferring block).
func (b *Block) Dim() int { return b.dim }

// Len returns the number of points stored.
func (b *Block) Len() int {
	if b.dim == 0 {
		return 0
	}
	return len(b.coords) / b.dim
}

// Row returns the i-th point's coordinates as a view into the block's
// backing array. The full-slice expression caps the view so an append
// through it cannot clobber the next row.
func (b *Block) Row(i int) []float64 {
	lo := i * b.dim
	return b.coords[lo : lo+b.dim : lo+b.dim]
}

// AppendRow copies one point onto the end of the block. On a block built
// with dim 0 the first append fixes the dimension; afterwards a mismatched
// row panics, which indicates programmer error.
func (b *Block) AppendRow(row []float64) {
	if b.dim == 0 && len(b.coords) == 0 {
		b.dim = len(row)
	}
	if len(row) != b.dim || b.dim == 0 {
		panic(fmt.Sprintf("points: appending %d-dim row to %d-dim block", len(row), b.dim))
	}
	b.coords = append(b.coords, row...)
}

// Extend appends n rows of dimension dim and returns their coordinates —
// n×dim values, row-major, contents unspecified — for the caller to fill in
// place: the reserve for a producer that knows its row count up front. The
// backing array grows at most once, to exactly the length needed, and not at
// all on a block that carries the capacity (a recycled one). AppendRow's
// rules apply to dim; the view dies with the block's next mutation.
func (b *Block) Extend(dim, n int) []float64 {
	if b.dim == 0 && len(b.coords) == 0 {
		b.dim = dim
	}
	if dim != b.dim || dim <= 0 || n < 0 {
		panic(fmt.Sprintf("points: extending %d-dim block by %d %d-dim rows", b.dim, n, dim))
	}
	lo := len(b.coords)
	need := lo + n*dim
	if cap(b.coords) < need {
		grown := make([]float64, need)
		copy(grown, b.coords)
		b.coords = grown
	}
	b.coords = b.coords[:need]
	return b.coords[lo:need:need]
}

// AppendBlock copies every row of o onto the end of the block. The usual
// AppendRow rules apply: an empty dimension-inferring block adopts o's
// dimension, and a mismatch panics.
func (b *Block) AppendBlock(o *Block) {
	if o.Len() == 0 {
		return
	}
	if b.dim == 0 && len(b.coords) == 0 {
		b.dim = o.dim
	}
	if o.dim != b.dim {
		panic(fmt.Sprintf("points: appending %d-dim block to %d-dim block", o.dim, b.dim))
	}
	b.coords = append(b.coords, o.coords...)
}

// SwapDelete removes row i by moving the last row into its place and
// truncating — O(d) regardless of position, at the cost of row order.
func (b *Block) SwapDelete(i int) {
	n := b.Len()
	if i != n-1 {
		copy(b.Row(i), b.Row(n-1))
	}
	b.coords = b.coords[:(n-1)*b.dim]
}

// Truncate shortens the block to n points.
func (b *Block) Truncate(n int) { b.coords = b.coords[:n*b.dim] }

// Reset empties the block, keeping capacity and dimension for reuse.
func (b *Block) Reset() { b.coords = b.coords[:0] }

// Clear empties the block and forgets its dimension, keeping capacity —
// the pooled-builder reset, where the next use may carry a different
// dimensionality.
func (b *Block) Clear() {
	b.coords = b.coords[:0]
	b.dim = 0
}

// Slice returns a read-only view of rows [lo, hi) sharing the backing
// array — the chunking primitive of the parallel kernels. Mutating the
// view or the parent afterwards is undefined.
func (b *Block) Slice(lo, hi int) *Block {
	return &Block{dim: b.dim, coords: b.coords[lo*b.dim : hi*b.dim : hi*b.dim]}
}

// Clone deep-copies the block.
func (b *Block) Clone() *Block {
	out := &Block{dim: b.dim, coords: make([]float64, len(b.coords))}
	copy(out.coords, b.coords)
	return out
}

// ToSet converts the block back to a point set. The points share one
// freshly allocated backing array (two allocations total, not n), so the
// result is safe against later mutation of the block.
func (b *Block) ToSet() Set {
	n := b.Len()
	out := make(Set, n)
	if n == 0 {
		return out
	}
	backing := make([]float64, len(b.coords))
	copy(backing, b.coords)
	for i := 0; i < n; i++ {
		out[i] = Point(backing[i*b.dim : (i+1)*b.dim : (i+1)*b.dim])
	}
	return out
}
