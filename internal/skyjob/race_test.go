//go:build race

package skyjob

// raceEnabled gates assertions on allocated bytes, which the race
// detector's instrumentation inflates.
const raceEnabled = true
