// Package det exercises the determinism family: wall-clock reads, math/rand
// imports and goroutine launches are findings; justified uses are not.
package det

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock directly — a wallclock finding.
func Stamp() time.Time {
	return time.Now()
}

// Backoff schedules against the host clock — a wallclock finding.
func Backoff() {
	<-time.After(time.Second)
}

// Clock stores a reference (not a call) to time.Now — still a finding.
var Clock = time.Now

// Jitter draws from the shared global stream; the import above is the
// globalrand finding.
func Jitter() int {
	return rand.Intn(10)
}

// Launch breaks the single simulation goroutine — a goroutine finding.
func Launch(fn func()) {
	go fn()
}

// Paced launches a worker under an explicit justification: allowed.
func Paced(fn func()) {
	//glacvet:allow goroutine fixture: a justified worker pool launch
	go fn()
}
