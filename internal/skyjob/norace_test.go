//go:build !race

package skyjob

const raceEnabled = false
