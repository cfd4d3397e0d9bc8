package points

import (
	"math"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the point decoder: it must never
// panic, and any successful decode must re-encode to the same bytes.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(Point{1, 2, 3}))
	f.Add(Encode(Point{}))
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		back := Encode(p)
		if len(back) != len(data) {
			t.Fatalf("re-encode length %d, original %d", len(back), len(data))
		}
		for i := range back {
			if back[i] != data[i] {
				// NaN payloads survive bit-exactly through Float64bits,
				// so any mismatch is a real bug.
				t.Fatalf("re-encode differs at byte %d", i)
			}
		}
	})
}

// FuzzDominates checks the dominance axioms on arbitrary coordinates.
func FuzzDominates(f *testing.F) {
	f.Add(1.0, 2.0, 2.0, 1.0)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(math.Inf(1), 1.0, 1.0, math.Inf(-1))

	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		p, q := Point{a, b}, Point{c, d}
		if Dominates(p, p) {
			t.Fatal("reflexive dominance")
		}
		if Dominates(p, q) && Dominates(q, p) {
			t.Fatal("symmetric dominance")
		}
		if Dominates(p, q) && !DominatesOrEqual(p, q) {
			t.Fatal("strict without weak dominance")
		}
	})
}
