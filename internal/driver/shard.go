package driver

import (
	"math"

	"repro/internal/points"
	"repro/internal/rtree"
)

// A shard owns one angular partition's local skyline inside the serving
// index. Shards are immutable: a publish that changes a shard's local
// skyline produces a *new* shard value, so epoch snapshots can share
// untouched shards across versions without copying and readers never see
// a shard mid-update.
//
// Candidate pruning on the write path runs two ways: small shards take a
// single linear BNL-style pass over the local skyline; shards at or above
// shardTreeCrossover carry an STR-packed R-tree over their members, and a
// publish resolves its dominators (box [-inf, p]) and its victims (box
// [p, +inf]) with two bounded box searches instead of a full scan. The
// crossover is justified by BenchmarkShardAdd in shard_test.go: local
// skylines are mutually non-dominated (anti-correlated shape), and on
// that shape the tree is ahead from roughly 128 points for both
// skyline-entering and dominated probes — 256 is the conservative pick,
// because correlated publish streams with abundant dominators let the
// linear scan early-exit in a handful of tests.
const shardTreeCrossover = 256

type shard struct {
	local points.Set  // this partition's local skyline; treat as immutable
	tree  *rtree.Tree // non-nil iff len(local) >= shardTreeCrossover
	// floor and ceiling are the all -inf and all +inf corners of the tree's
	// dimension: the open sides of addTree's corner boxes.
	floor, ceiling points.Point
}

// newShard wraps a local skyline, building the R-tree accelerator when
// the shard is large enough to repay it. The set is adopted, not copied.
func newShard(local points.Set) *shard {
	if len(local) >= shardTreeCrossover {
		return treeShard(local)
	}
	return &shard{local: local}
}

// treeShard wraps a local skyline with its R-tree accelerator, whatever its
// size; a set the tree refuses (an empty one) gets none.
func treeShard(local points.Set) *shard {
	s := &shard{local: local}
	if t, err := rtree.New(local, rtree.DefaultFanout); err == nil {
		d := local.Dim()
		s.tree, s.floor, s.ceiling = t, make(points.Point, d), make(points.Point, d)
		for j := 0; j < d; j++ {
			s.floor[j], s.ceiling[j] = math.Inf(-1), math.Inf(1)
		}
	}
	return s
}

// dominatesStrict is the repo-wide skyline convention: q kills p when q
// is at least as good everywhere and not coordinate-equal (coordinate
// duplicates all survive — registry semantics).
func dominatesStrict(q, p points.Point) bool {
	return points.DominatesOrEqual(q, p) && !q.Equal(p)
}

// add attempts to insert p into the shard's local skyline. It returns
// the replacement local skyline (the unchanged one when p is dominated),
// whether p survived, and the number of dominance tests spent deciding —
// the per-query attribution currency.
func (s *shard) add(p points.Point) (newLocal points.Set, ok bool, tests int64) {
	if s.tree != nil {
		return s.addTree(p)
	}
	return addLinear(s.local, p)
}

// addLinear inserts p into the skyline set in one pass, testing both
// directions per incumbent, copy-on-write: set is never mutated, and it is
// returned unchanged when p is dominated. The classic BNL argument applies —
// incumbents are mutually non-dominated, so once p evicts someone nothing
// later can dominate p, and once p dies it cannot have evicted anyone. It is
// the small-shard path, and how a shard survivor enters the global skyline.
func addLinear(set points.Set, p points.Point) (out points.Set, entered bool, tests int64) {
	evict := -1 // index of first eviction, -1 while none
	for i, q := range set {
		tests++
		if evict < 0 && dominatesStrict(q, p) {
			return set, false, tests
		}
		if dominatesStrict(p, q) && evict < 0 {
			evict = i
		}
	}
	if evict < 0 {
		out = make(points.Set, 0, len(set)+1)
		out = append(out, set...)
		return append(out, p), true, tests
	}
	out = make(points.Set, 0, len(set))
	out = append(out, set[:evict]...)
	for _, q := range set[evict+1:] {
		if !dominatesStrict(p, q) {
			out = append(out, q)
		}
	}
	return append(out, p), true, tests
}

// addTree is the large-shard path: two corner-box visits of the R-tree.
// Dominators of p live in [-inf, p]; victims of p live in [p, +inf].
// Leaf-entry box checks are counted as dominance tests — each is exactly
// one "is q ≤ p componentwise" comparison. A visit reads every leaf its box
// reaches and keeps only a flag or a count, so a dominated probe allocates
// nothing and an entering one only its new local skyline.
func (s *shard) addTree(p points.Point) (points.Set, bool, int64) {
	dominated := false
	tests := s.tree.Visit(s.floor, p, func(q points.Point) {
		if !q.Equal(p) {
			dominated = true
		}
	})
	if dominated {
		return s.local, false, tests
	}
	// The victims not equal to p are exactly the local rows p dominates
	// strictly, so the filter re-runs that test on each row rather than
	// matching rows against the victims.
	evicted := 0
	tests += s.tree.Visit(p, s.ceiling, func(q points.Point) {
		if !q.Equal(p) {
			evicted++
		}
	})
	out := make(points.Set, 0, len(s.local)+1-evicted)
	if evicted == 0 {
		out = append(out, s.local...)
	} else {
		for _, q := range s.local {
			if !dominatesStrict(p, q) {
				out = append(out, q)
			}
		}
	}
	return append(out, p), true, tests
}
