package driver

import (
	"context"
	"testing"

	"repro/internal/partition"
	"repro/internal/points"
)

// dupSet builds a uniform set and re-appends a slice of exact
// duplicates, so the pipeline's multiset semantics are exercised, not
// just its set semantics.
func dupSet(seed int64, n, d int) points.Set {
	s := uniformSet(seed, n, d)
	for i := 0; i < n/10; i++ {
		s = append(s, s[i].Clone())
	}
	return s
}

// TestFrameShuffleCounters: the framed run books shuffle counters with
// frame payload semantics (headers + coords, no gob envelope).
func TestFrameShuffleCounters(t *testing.T) {
	data := uniformSet(21, 1000, 4)
	_, stats, err := Compute(context.Background(), data, Options{Scheme: partition.Angular, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := stats.Counters["mr.shuffle.records"]
	if recs <= 0 || recs > int64(2*len(data)) {
		t.Errorf("shuffle records = %d, implausible for %d inputs", recs, len(data))
	}
	bytes := stats.Counters["mr.shuffle.bytes"]
	// Combined local skylines can only shrink data; payload bytes must be
	// below raw coordinate volume plus generous header slack.
	max := int64(len(data)*4*8) * 2
	if bytes <= 0 || bytes > max {
		t.Errorf("shuffle bytes = %d, want in (0, %d]", bytes, max)
	}
}
