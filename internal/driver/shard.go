package driver

import "repro/internal/points"

// dominatesStrict is the repo-wide skyline convention: q kills p when q
// is at least as good everywhere and not coordinate-equal (coordinate
// duplicates all survive — registry semantics).
func dominatesStrict(q, p points.Point) bool {
	return points.DominatesOrEqual(q, p) && !q.Equal(p)
}

// addLinear inserts p into the skyline set in one pass, testing both
// directions per incumbent, copy-on-write: set is never mutated, and it is
// returned unchanged when p is dominated. The classic BNL argument applies —
// incumbents are mutually non-dominated, so once p evicts someone nothing
// later can dominate p, and once p dies it cannot have evicted anyone. It is
// the one fold of the serving write path: a publish goes through it on its
// partition's local skyline and, if it survives there, on the global one.
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
