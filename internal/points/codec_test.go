package points

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Point{
		{},
		{0},
		{1.5, -2.25, 1e300},
		{math.SmallestNonzeroFloat64, math.MaxFloat64},
	}
	for _, p := range cases {
		got, err := Decode(Encode(p))
		if err != nil {
			t.Fatalf("Decode(Encode(%v)): %v", p, err)
		}
		if len(got) != len(p) {
			t.Fatalf("round trip changed length: %v -> %v", p, got)
		}
		for i := range p {
			if got[i] != p[i] {
				t.Errorf("round trip mismatch at %d: %v vs %v", i, got[i], p[i])
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Decode([]byte{2, 0, 0}); err == nil {
		t.Error("truncated accepted")
	}
	e := Encode(Point{1, 2})
	if _, err := Decode(append(e, 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
	// Implausible dimension header.
	if _, err := Decode([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Error("huge dimension accepted")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(vals []float64) bool {
		p := Point(vals)
		got, err := Decode(Encode(p))
		if err != nil || len(got) != len(p) {
			return false
		}
		for i := range p {
			if got[i] != p[i] && !(math.IsNaN(got[i]) && math.IsNaN(p[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
