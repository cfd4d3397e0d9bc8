package registry

import (
	"math"
	"slices"
)

// coordIndex finds the catalogue entries at a QoS vector, so a skyline
// read maps its rows back to services at the cost of its answer rather
// than of the catalogue. A hash of the vector's float64 bits keys the
// services whose vectors hash there; a lookup compares the bits exactly,
// so a collision costs a comparison, never a wrong answer, and ±0 stay
// distinct, as points.Key's 'b' format keeps them. Not safe for
// concurrent use: the registry keeps it in step with its catalogue under
// its lock.
type coordIndex struct {
	hash    func([]float64) uint64 // qosHash; a test collapses it to force collisions
	buckets map[uint64][]Service
}

func newCoordIndex(n int) coordIndex {
	return coordIndex{hash: qosHash, buckets: make(map[uint64][]Service, n)}
}

func (c coordIndex) add(s Service) {
	h := c.hash(s.QoS)
	c.buckets[h] = append(c.buckets[h], s)
}

// remove drops the entry named s.Name from s.QoS's bucket.
func (c coordIndex) remove(s Service) {
	h := c.hash(s.QoS)
	b := slices.DeleteFunc(c.buckets[h], func(e Service) bool { return e.Name == s.Name })
	if len(b) == 0 {
		delete(c.buckets, h)
	} else {
		c.buckets[h] = b
	}
}

// appendAt appends the entries whose vector has exactly p's bits.
func (c coordIndex) appendAt(out []Service, p []float64) []Service {
	for _, s := range c.buckets[c.hash(p)] {
		if sameBits(s.QoS, p) {
			out = append(out, s)
		}
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// qosHash folds each coordinate's bits through splitmix64's finaliser.
func qosHash(qos []float64) uint64 {
	var h uint64
	for _, v := range qos {
		h += math.Float64bits(v) + 0x9e3779b97f4a7c15
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
