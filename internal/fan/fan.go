// Package fan is the one way this module splits a loop between goroutines
// and waits for them: run fn over k shares, return when all have.
package fan

import "sync"

// Out runs fn(0) … fn(k−1) and returns once every call has: share 0 on the
// calling goroutine, each of the others on one of its own. k ≤ 1 is a plain
// call — nothing is started — so a one-worker caller stays on one goroutine.
// The shares must write disjoint memory; Out orders what they wrote before
// its return.
func Out(k int, fn func(share int)) {
	var wg sync.WaitGroup
	for share := 1; share < k; share++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(share)
		}()
	}
	fn(0)
	wg.Wait()
}

// Cut is share's contiguous part [lo, hi) of n items cut into k shares, in
// order and as even as integers allow; a share is empty when k > n.
func Cut(n, k, share int) (lo, hi int) {
	return share * n / k, (share + 1) * n / k
}
