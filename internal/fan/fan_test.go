package fan

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestOutRunsEveryShareOnce, and one share — or none — on the caller's own
// goroutine: a one-worker job must not start any.
func TestOutRunsEveryShareOnce(t *testing.T) {
	for _, k := range []int{-1, 0, 1, 2, 3, 17} {
		ran := make([]atomic.Int32, max(k, 1))
		Out(k, func(share int) { ran[share].Add(1) })
		for share := range ran {
			if n := ran[share].Load(); n != 1 {
				t.Errorf("k=%d: share %d ran %d times", k, share, n)
			}
		}
	}
	before := runtime.NumGoroutine()
	Out(1, func(int) {
		if now := runtime.NumGoroutine(); now != before {
			t.Errorf("Out(1) runs beside %d goroutines, %d before the call", now, before)
		}
	})
}

// TestCutCoversInOrder: the shares of n items are contiguous, in order,
// cover 0 … n−1 once and differ by at most one item.
func TestCutCoversInOrder(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 1000} {
		for _, k := range []int{1, 2, 3, 8, 11} {
			next, least, most := 0, n, 0
			for share := 0; share < k; share++ {
				lo, hi := Cut(n, k, share)
				if lo != next || hi < lo {
					t.Fatalf("Cut(%d, %d, %d) = [%d, %d) after %d", n, k, share, lo, hi, next)
				}
				next, least, most = hi, min(least, hi-lo), max(most, hi-lo)
			}
			if next != n || most-least > 1 {
				t.Errorf("n=%d k=%d: covered %d, shares of %d to %d items", n, k, next, least, most)
			}
		}
	}
}
