package driver

import (
	"math/rand"
	"testing"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/qws"
	"repro/internal/skyline"
)

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

// TestAddLinearAllocates: on a 4 096-row skyline, a dominated point
// allocates nothing, and one that enters allocates its new set and
// nothing else.
func TestAddLinearAllocates(t *testing.T) {
	const n, d = 4096, 5
	base := simplexSet(60, n, d)
	enter := simplexSet(61, 1, d)[0]
	dominated := base[7].Clone()
	for j := range dominated {
		dominated[j] *= 1.05
	}
	if _, ok, _ := addLinear(base, dominated); ok {
		t.Fatal("the dominated probe entered")
	}
	if _, ok, _ := addLinear(base, enter); !ok {
		t.Fatal("the entering probe was dominated")
	}
	if a := testing.AllocsPerRun(100, func() { addLinear(base, dominated) }); a != 0 {
		t.Errorf("a dominated add allocates %.1f times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { addLinear(base, enter) }); a != 1 {
		t.Errorf("an entering add allocates %.1f times, want 1 (its new local skyline)", a)
	}
}

// simplexSet generates mutually non-dominated points (normalized onto
// the unit simplex: q ≤ p componentwise with equal coordinate sums
// forces q == p) — the anti-correlated shape every shard's local skyline
// converges to.
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

// FuzzIndexFoldMatchesOracle folds fuzz-chosen batches through the index
// and checks every epoch against BNL: the global skyline over every row so
// far, each partition's local skyline over the rows routed to it, and the
// commit naming every batch row the new global holds.
//
// The bytes read: d = 2 + data[0]%5; the scheme data[1]%4 with
// 1 + (data[1]>>2)%8 partitions wanted; then one op byte per row. An op
// with bit 7 set repeats an earlier row, the next byte counting back from
// the last; otherwise d coordinate bytes follow, and bit 5 copies
// coordinate (op&31)%d from the previous row, a forced tie. Bit 6 ends the
// batch after the row, for the first 64 batches: the oracle runs once per
// batch, and a cap on the batches bounds the time one input takes.
func FuzzIndexFoldMatchesOracle(f *testing.F) {
	f.Add(shardStreamSeed())
	f.Add([]byte{0, 2, 0, 1, 1, 0x40, 1, 1, 0x80, 0, 0x60, 2, 0, 0x20, 0, 2, 0xc0, 1, 0, 0, 0})
	f.Add([]byte{4, 0x1f, 0, 9, 8, 7, 6, 5, 4, 0x41, 9, 8, 7, 6, 5, 4, 0x80, 0, 0x23, 1, 2, 3, 4, 5, 6, 0xc0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d := 2 + int(data[0])%5
		scheme := partition.Scheme(data[1] % 4)
		want := 1 + int(data[1]>>2)%8
		var rows points.Set
		var cuts []int
		for i := 2; i < len(data) && len(rows) < 400; {
			op := data[i]
			i++
			if op&0x80 != 0 && len(rows) > 0 && i < len(data) {
				rows = append(rows, rows[len(rows)-1-int(data[i])%len(rows)].Clone())
				i++
			} else {
				if i+d > len(data) {
					break
				}
				p := make(points.Point, d)
				for j := range p {
					p[j] = float64(data[i+j])
				}
				i += d
				if op&0x20 != 0 && len(rows) > 0 {
					j := int(op&31) % d
					p[j] = rows[len(rows)-1][j]
				}
				rows = append(rows, p)
			}
			if op&0x40 != 0 && len(cuts) < 64 {
				cuts = append(cuts, len(rows))
			}
		}
		if len(rows) == 0 {
			return
		}
		cuts = append(cuts, len(rows))

		part, err := partition.New(scheme, rows, want)
		if err != nil {
			t.Fatalf("fit %v over %d rows: %v", scheme, len(rows), err)
		}
		ix := &Index{scheme: scheme, part: part, dim: d}
		ix.install(1, nil, nil)
		var commit Commit
		ix.SetOnCommit(func(c Commit) { commit = c })

		routed := map[int]points.Set{}
		from := 0
		for _, to := range cuts {
			if to == from {
				continue
			}
			batch := rows[from:to]
			from = to
			pds := make([]*pending, len(batch))
			for i, p := range batch {
				pds[i] = &pending{p: p}
			}
			ix.mu.Lock()
			ix.foldBatch(pds)
			ix.mu.Unlock()
			for i, pd := range pds {
				res := pd.res
				if res.err != nil {
					t.Fatalf("row %v: %v", batch[i], res.err)
				}
				routed[res.partition] = append(routed[res.partition], batch[i])
			}

			v := ix.View()
			if commit.Epoch != v.Epoch() {
				t.Fatalf("commit for epoch %d, view at %d", commit.Epoch, v.Epoch())
			}
			if !sameMultiset(v.Global(), skyline.BNL(rows[:to])) {
				t.Fatalf("after %d rows: global holds %d, BNL %d", to, len(v.Global()), len(skyline.BNL(rows[:to])))
			}
			for id := range routed {
				if id < 0 || id >= v.Partitions() {
					t.Fatalf("row routed to partition %d of %d", id, v.Partitions())
				}
			}
			for id := 0; id < v.Partitions(); id++ {
				if !sameMultiset(v.Local(id), skyline.BNL(routed[id])) {
					t.Fatalf("after %d rows: partition %d holds %d, BNL over its %d rows %d",
						to, id, len(v.Local(id)), len(routed[id]), len(skyline.BNL(routed[id])))
				}
			}
			// Duplicates share one fate, so a key the new global holds has
			// entered once for each of its copies in the batch.
			inBatch, inGlobal, entered := keyCounts(batch), keyCounts(v.Global()), keyCounts(commit.Entered)
			for k, n := range entered {
				if n > inBatch[k] {
					t.Fatalf("commit entered %d copies of a row the batch holds %d times", n, inBatch[k])
				}
			}
			for k, n := range inBatch {
				if inGlobal[k] > 0 && entered[k] != n {
					t.Fatalf("the batch's %d copies of a global row entered %d times", n, entered[k])
				}
			}
		}
	})
}

func keyCounts(s points.Set) map[string]int {
	out := make(map[string]int, len(s))
	for _, p := range s {
		out[points.Key(p)]++
	}
	return out
}

// shardStreamSeed encodes the stream that once checked the linear and
// R-tree shard adds against each other: 400 rows of d = 3 at seed 51, each
// coordinate quantised to a byte, every 20th row a repeat of row i/2, into
// the angular index with 8 partitions wanted, in batches of 1, 5 and 37.
func shardStreamSeed() []byte {
	rng := rand.New(rand.NewSource(51))
	out := []byte{1, 2 | 7<<2}
	for i := 0; i < 400; i++ {
		var op byte
		if i == 0 || (i < 100 && i%5 == 4) || i%37 == 36 {
			op |= 0x40
		}
		row := []byte{byte(rng.Float64() * 256), byte(rng.Float64() * 256), byte(rng.Float64() * 256)}
		if i%20 == 19 {
			out = append(out, op|0x80, byte(i-1-i/2))
		} else {
			out = append(append(out, op), row...)
		}
	}
	return out
}
