// Package comms models every radio link in the deployment at the level the
// paper evaluates them: data rate, electrical power, availability, and the
// failure semantics that drove the architecture change from an
// inter-station radio-modem relay (Norway) to independent GPRS modems per
// station (Iceland).
//
// Table I of the paper gives the characteristics reproduced here:
//
//	Device        Transfer rate   Power
//	Gumstix       —               900 mW
//	GPRS modem    5000 bps        2640 mW
//	Radio modem   2000 bps        3960 mW
//	GPS           —               3600 mW
package comms

import (
	"errors"
	"time"

	"repro/internal/simenv"
)

// Table I characteristics.
const (
	GPRSRateBps  = 5000
	GPRSPowerW   = 2.64
	RadioRateBps = 2000
	RadioPowerW  = 3.96
)

// GPRSOverhead is the GPRS protocol overhead fraction on payload bytes.
const GPRSOverhead = 0.12

// ErrNoSignal is returned when a modem cannot attach to its network at all
// during the current window.
var ErrNoSignal = errors.New("comms: no signal")

// ErrDropped is returned when a transfer was interrupted partway.
var ErrDropped = errors.New("comms: link dropped mid-transfer")

// TransferResult describes how a transfer attempt ended.
type TransferResult struct {
	// Elapsed is the time the attempt occupied, whether or not it finished.
	Elapsed time.Duration
	// err is nil on success, ErrDropped on a mid-transfer failure.
	err error
}

// Completed reports whether the whole payload was transferred.
func (r TransferResult) Completed() bool { return r.err == nil }

// transferTime returns the wire time for n bytes at rate bps, including a
// fractional protocol overhead.
func transferTime(n int64, bps float64, overhead float64) time.Duration {
	if n <= 0 {
		return 0
	}
	secs := float64(n) * 8 * (1 + overhead) / bps
	return time.Duration(secs * float64(time.Second))
}

// hashNoise returns a deterministic uniform [0,1) keyed on (seed, tag, k).
// Link availability uses hash noise rather than a shared RNG stream so that
// adding unrelated randomness elsewhere cannot change an outage pattern.
func hashNoise(seed int64, tag string, k uint64) float64 {
	return simenv.HashNoise(seed, tag, k)
}
