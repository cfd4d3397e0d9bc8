package driver

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/points"
	"repro/internal/qws"
	"repro/internal/skyline"
)

// TestShardAddPathsAgree: the linear and R-tree add paths are
// interchangeable — same survivors, same rejections, duplicates kept —
// against the BNL oracle over the accumulated stream.
func TestShardAddPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var stream points.Set
	for i := 0; i < 400; i++ {
		stream = append(stream, points.Point{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	// Inject duplicates: every 20th point repeats an earlier one.
	for i := 19; i < len(stream); i += 20 {
		stream[i] = stream[i/2].Clone()
	}

	linear := &shard{local: nil}
	var accepted points.Set
	for _, p := range stream {
		// Force-tree variant: rebuild a tree over the current local each
		// step so addTree is exercised at every size (fanout pressure at
		// small n is the edge case), regardless of the crossover.
		tree := treeShard(accepted)
		if len(accepted) > 0 && tree.tree == nil {
			t.Fatalf("no tree over %d accepted points", len(accepted))
		}

		nl1, ok1, _ := addLinear(linear.local, p)
		var nl2 points.Set
		var ok2 bool
		if tree.tree != nil {
			nl2, ok2, _ = tree.addTree(p)
		} else {
			nl2, ok2, _ = addLinear(tree.local, p)
		}
		if ok1 != ok2 {
			t.Fatalf("paths disagree on %v: linear=%v tree=%v", p, ok1, ok2)
		}
		if ok1 {
			if !sameMultiset(nl1, nl2) {
				t.Fatalf("paths produced different locals (%d vs %d)", len(nl1), len(nl2))
			}
			accepted = nl1
			linear = &shard{local: accepted}
		}
	}
	if !sameMultiset(accepted, skyline.BNL(stream)) {
		t.Error("shard stream result diverges from BNL oracle")
	}
}

// TestGlobalAddOracle: folding a stream point-by-point through addLinear
// equals the batch BNL, duplicates preserved, and the input set is never
// mutated (copy-on-write).
func TestGlobalAddOracle(t *testing.T) {
	stream := qws.Dataset(52, 500, 4)
	stream = append(stream, stream[10].Clone(), stream[20].Clone())
	var global points.Set
	for _, p := range stream {
		prev := global
		prevLen := len(prev)
		var snapshot points.Set
		if prevLen > 0 {
			snapshot = prev.Clone()
		}
		next, entered, tests := addLinear(global, p)
		// One pass: at most one test per incumbent, exactly one each when
		// the point survives (no early exit on the accept path).
		if tests > int64(prevLen) || (entered && tests != int64(prevLen)) {
			t.Fatalf("addLinear spent %d tests over %d incumbents (entered=%v)", tests, prevLen, entered)
		}
		if prevLen > 0 && !sameMultiset(prev[:prevLen], snapshot) {
			t.Fatal("addLinear mutated its input set")
		}
		global = next
	}
	if !sameMultiset(global, skyline.BNL(stream)) {
		t.Error("incremental global diverges from BNL oracle")
	}
}

// TestShardAddTreeAllocates: a large shard's add keeps nothing of its
// corner-box visits but a flag and a count, so a dominated probe allocates
// nothing and an entering one only its new local skyline.
func TestShardAddTreeAllocates(t *testing.T) {
	const n, d = 4096, 5
	base := simplexSet(60, n, d)
	s := newShard(base)
	if s.tree == nil {
		t.Fatalf("a %d-point shard has no tree", n)
	}
	enter := simplexSet(61, 1, d)[0]
	dominated := base[7].Clone()
	for j := range dominated {
		dominated[j] *= 1.05
	}
	if _, ok, _ := s.add(dominated); ok {
		t.Fatal("the dominated probe entered")
	}
	if _, ok, _ := s.add(enter); !ok {
		t.Fatal("the entering probe was dominated")
	}
	if a := testing.AllocsPerRun(100, func() { s.add(dominated) }); a != 0 {
		t.Errorf("a dominated add allocates %.1f times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { s.add(enter) }); a != 1 {
		t.Errorf("an entering add allocates %.1f times, want 1 (its new local skyline)", a)
	}
}

// simplexSet generates mutually non-dominated points (normalized onto
// the unit simplex: q ≤ p componentwise with equal coordinate sums
// forces q == p) — the anti-correlated shape every shard's local skyline
// converges to, which makes it the representative base for the
// crossover measurement.
func simplexSet(seed int64, n, d int) points.Set {
	rng := rand.New(rand.NewSource(seed))
	out := make(points.Set, n)
	for i := range out {
		p := make(points.Point, d)
		s := 0.0
		for j := range p {
			p[j] = rng.ExpFloat64()
			s += p[j]
		}
		for j := range p {
			p[j] /= s
		}
		out[i] = p
	}
	return out
}

// BenchmarkShardAdd justifies shardTreeCrossover: for each shard size it
// measures a publish against the linear path and the R-tree path, for
// both probe classes — "enter" (a fresh simplex point, which joins the
// skyline and forces the linear path to scan everything) and "dom" (the
// same point scaled up 5%, dominated but only discoverably so via a
// near-corner incumbent). Run with
//
//	go test -bench ShardAdd -benchtime 1000x ./internal/driver
//
// On the dev container the tree is ahead for every class from n≈128
// (e.g. n=512: ~10µs linear vs ~6µs tree; n=4096: ~82µs vs ~50µs), so
// the 256 crossover is conservative: heavily dominated correlated
// streams (many dominators → linear early-exits in a handful of tests)
// are the one regime where linear stays ahead, and small shards stay
// linear anyway.
func BenchmarkShardAdd(b *testing.B) {
	const d = 5
	for _, n := range []int{64, 128, 256, 512, 1024, 4096} {
		base := simplexSet(60, n, d)
		enter := simplexSet(61, 512, d)
		dominated := make(points.Set, len(enter))
		for i, p := range enter {
			q := p.Clone()
			for j := range q {
				q[j] *= 1.05
			}
			dominated[i] = q
		}
		linear := &shard{local: base}
		withTree := treeShard(base)
		for _, class := range []struct {
			name   string
			probes points.Set
		}{{"enter", enter}, {"dom", dominated}} {
			b.Run(fmt.Sprintf("linear/%s/n=%d", class.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					addLinear(linear.local, class.probes[i%len(class.probes)])
				}
			})
			b.Run(fmt.Sprintf("rtree/%s/n=%d", class.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					withTree.addTree(class.probes[i%len(class.probes)])
				}
			})
		}
	}
}
