//go:build !race

package driver

const raceEnabled = false
