// Package rtree is an in-memory R-tree over points, bulk-loaded with the
// Sort-Tile-Recursive (STR) algorithm, plus the branch-and-bound skyline
// (BBS) algorithm of Papadias et al. — the paper's reference [25] and the
// index-based family its Section IV nearest-neighbor reasoning builds on.
// BBS visits R-tree entries in ascending L1 distance from the origin and
// prunes every subtree whose best corner is already dominated, which makes
// it progressive: skyline points stream out in nondecreasing L1 order,
// each before the traversal inspects most of the data.
package rtree

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/points"
)

// DefaultFanout is the node capacity used by New.
const DefaultFanout = 16

// Tree is an immutable, bulk-loaded R-tree.
type Tree struct {
	root   *node
	size   int
	fanout int
}

type node struct {
	lo, hi   points.Point // minimum bounding rectangle
	children []*node      // nil for leaves
	entries  points.Set   // nil for internal nodes
}

// New bulk-loads a tree over the set with the given fanout (node
// capacity). The input must be non-empty and uniform-dimensional; the
// tree keeps references to the input points.
func New(s points.Set, fanout int) (*Tree, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	if fanout < 2 {
		return nil, fmt.Errorf("rtree: fanout %d, need >= 2", fanout)
	}
	pts := make(points.Set, len(s))
	copy(pts, s)
	leaves := strPack(pts, fanout)
	level := leaves
	for len(level) > 1 {
		level = packNodes(level, fanout)
	}
	return &Tree{root: level[0], size: len(s), fanout: fanout}, nil
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a single leaf).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; n.children != nil; n = n.children[0] {
		h++
	}
	return h
}

// strPack builds leaf nodes via Sort-Tile-Recursive: sort on dimension 0,
// cut into vertical slabs of √(n/fanout) tiles, sort each slab on
// dimension 1, and pack consecutive runs of `fanout` points per leaf.
func strPack(pts points.Set, fanout int) []*node {
	n := len(pts)
	leafCount := (n + fanout - 1) / fanout
	sort.SliceStable(pts, func(i, j int) bool { return pts[i][0] < pts[j][0] })
	slabs := int(math.Ceil(math.Sqrt(float64(leafCount))))
	if slabs < 1 {
		slabs = 1
	}
	perSlab := (n + slabs - 1) / slabs
	var leaves []*node
	for off := 0; off < n; off += perSlab {
		end := off + perSlab
		if end > n {
			end = n
		}
		slab := pts[off:end]
		if slab.Dim() >= 2 {
			sort.SliceStable(slab, func(i, j int) bool { return slab[i][1] < slab[j][1] })
		}
		for lo := 0; lo < len(slab); lo += fanout {
			hi := lo + fanout
			if hi > len(slab) {
				hi = len(slab)
			}
			leaf := &node{entries: slab[lo:hi]}
			leaf.lo, leaf.hi = boundsOf(slab[lo:hi])
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// packNodes groups one level's nodes (ordered by construction) into
// parents of up to fanout children.
func packNodes(level []*node, fanout int) []*node {
	sort.SliceStable(level, func(i, j int) bool { return level[i].lo[0] < level[j].lo[0] })
	var parents []*node
	for off := 0; off < len(level); off += fanout {
		end := off + fanout
		if end > len(level) {
			end = len(level)
		}
		p := &node{children: level[off:end:end]}
		p.lo = level[off].lo.Clone()
		p.hi = level[off].hi.Clone()
		for _, c := range level[off+1 : end] {
			p.lo.MinWith(c.lo)
			p.hi.MaxWith(c.hi)
		}
		parents = append(parents, p)
	}
	return parents
}

func boundsOf(s points.Set) (lo, hi points.Point) {
	lo = s[0].Clone()
	hi = s[0].Clone()
	for _, p := range s[1:] {
		lo.MinWith(p)
		hi.MaxWith(p)
	}
	return lo, hi
}

// ---------------------------------------------------------------------------
// BBS

// bbsEntry is a heap element: either an R-tree node or a concrete point.
type bbsEntry struct {
	mindist float64 // L1 norm of the best corner / point
	nd      *node   // nil when pt is set
	pt      points.Point
}

type bbsHeap []bbsEntry

func (h bbsHeap) Len() int            { return len(h) }
func (h bbsHeap) Less(i, j int) bool  { return h[i].mindist < h[j].mindist }
func (h bbsHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *bbsHeap) Push(x interface{}) { *h = append(*h, x.(bbsEntry)) }
func (h *bbsHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func l1(p points.Point) float64 {
	s := 0.0
	for _, v := range p {
		s += v
	}
	return s
}

// Skyline runs BBS and returns the skyline in nondecreasing L1-distance
// order. Emit, when non-nil, receives each skyline point as soon as it is
// confirmed — the progressive interface that lets callers show first
// results while the traversal continues.
func (t *Tree) Skyline(emit func(points.Point)) points.Set {
	var sky points.Set
	h := &bbsHeap{{mindist: l1(t.root.lo), nd: t.root}}
	heap.Init(h)
	for h.Len() > 0 {
		e := heap.Pop(h).(bbsEntry)
		if e.nd != nil {
			// Prune the subtree when its best corner is strictly
			// dominated — every point inside is then strictly dominated
			// too (strictness also preserves coordinate-equal duplicates
			// of skyline points; see package skyline's conventions).
			if strictlyDominatedBy(sky, e.nd.lo) {
				continue
			}
			if e.nd.children == nil {
				for _, p := range e.nd.entries {
					heap.Push(h, bbsEntry{mindist: l1(p), pt: p})
				}
			} else {
				for _, c := range e.nd.children {
					heap.Push(h, bbsEntry{mindist: l1(c.lo), nd: c})
				}
			}
			continue
		}
		p := e.pt
		dominated := false
		for _, s := range sky {
			if points.DominatesOrEqual(s, p) && !s.Equal(p) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		sky = append(sky, p)
		if emit != nil {
			emit(p)
		}
	}
	return sky
}

// strictlyDominatedBy reports whether some skyline member strictly
// dominates corner in every... strictly in at least one dimension with ≤
// in all (the standard strict dominance), which suffices to discard any
// point ≥ corner except coordinate-equals of the dominator — and those
// cannot be ≥ corner unless equal to it, which strictness excludes.
func strictlyDominatedBy(sky points.Set, corner points.Point) bool {
	for _, s := range sky {
		if points.Dominates(s, corner) {
			return true
		}
	}
	return false
}
