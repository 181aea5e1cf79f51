//go:build race

package evlog

// raceEnabled reports that the race detector is on. It makes sync.Pool
// drop items at random, so allocation counts of code that uses a pool
// (encoding/json, fmt) vary from run to run.
const raceEnabled = true
