//go:build race

package driver

// raceEnabled gates assertions on allocated bytes, which the race
// detector's instrumentation inflates.
const raceEnabled = true
