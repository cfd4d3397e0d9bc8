//go:build !race

package registry

const raceEnabled = false
