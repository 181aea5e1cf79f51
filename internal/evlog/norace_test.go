//go:build !race

package evlog

const raceEnabled = false
