package skyline

// This file holds the flat-memory layer: the BNL kernel of skyline.go
// re-expressed over points.Block (BlockBNL — a loop around the window of
// window.go, where the pairwise dominance relation lives, inlined in
// window.scan), the Set↔Block adapters either way (BlockKernel, FlatBNL),
// and the process-wide dominance-test counter. BNL is the one kernel the
// jobs run; the classic points.Set kernels remain as the reference every
// test compares against and as the ablation rows' operators, and produce
// identical skylines on finite, uniform-dimensional input.

import (
	"sync/atomic"

	"repro/internal/points"
)

// dominanceTests counts every pairwise coordinate test executed by the
// flat kernels and the merge's tasks, process-wide. A pair the window's
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

// BlockKernel adapts a Set-typed kernel to the block signature: the block
// is viewed as a set, the kernel runs, and its survivors are packed back
// into a block. It is how a Set-typed operator — the k-skyband in Job 1, an
// ablation row's SFS, D&C or R-tree BBS — rides the framed pipeline.
func BlockKernel(classic Func) BlockFunc {
	return func(b *points.Block) *points.Block {
		out, ok := points.BlockOf(classic(b.ToSet()))
		if !ok {
			panic("skyline: classic kernel produced mixed-dimension set")
		}
		return out
	}
}

// FlatBNL computes the skyline with the flat block BNL. Unlike BNL it
// copies the input into contiguous storage first and returns fresh points;
// result order is unspecified. A set no block can represent (mixed
// dimensionalities, which only the classic kernels tolerate) falls back to
// BNL.
func FlatBNL(s points.Set) points.Set {
	b, ok := points.BlockOf(s)
	if !ok {
		return BNL(s)
	}
	return BlockBNL(b).ToSet()
}
