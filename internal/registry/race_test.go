//go:build race

package registry

// raceEnabled loosens exact allocation counts: under the race detector
// sync.Pool drops items at random, so pooled buffers (encoding/json's
// among them) are allocated a varying number of times.
const raceEnabled = true
