// Package power implements the paper's Table II power-state machine and the
// daily battery-voltage averaging that drives it.
//
// The MSP430 measures battery voltage every thirty minutes; once a day the
// Gumstix downloads the samples and computes a daily average — "to enable
// the overall health of the battery to be determined rather than just the
// health at midday", since the daily voltage peak falls at midday when the
// Gumstix is awake (Fig 5). The average selects a state:
//
//	State  Min threshold  Probe jobs  Sensors  GPS        GPRS
//	3      12.5 V         yes         yes      12 per day yes
//	2      12.0 V         yes         yes      1 per day  yes
//	1      11.5 V         yes         yes      no         yes
//	0      —              yes         yes      no         no
//
// Two safety clamps from §III guard the server-mediated override: a station
// never runs above what its own battery allows, and can never be forced
// into state 0 from outside ("to prevent ... the system being forced into a
// state in which it does not do communications").
package power

import "fmt"

// State is a Table II power state. The numeric values 0–3 are the paper's
// own and are meaningful (lower = more conservative), so this enum
// deliberately starts at 0: state 0 is a real, valid state.
type State int

// Table II states.
const (
	// State0 does sensing and probe jobs only: no GPS, no GPRS.
	State0 State = 0
	// State1 adds GPRS communications.
	State1 State = 1
	// State2 adds one dGPS reading per day.
	State2 State = 2
	// State3 is full operation: twelve dGPS readings per day.
	State3 State = 3
)

// String implements fmt.Stringer.
func (s State) String() string { return fmt.Sprintf("state%d", int(s)) }

// Valid reports whether s is one of the four Table II states.
func (s State) Valid() bool { return s >= State0 && s <= State3 }

// Plan is the activity schedule a state grants.
type Plan struct {
	// ProbeJobs: sub-glacial probe communication. Always allowed — "radio
	// communication with the probes is better in the winter ... so probe
	// communications should always be attempted".
	ProbeJobs bool
	// SensorReadings: MSP430 housekeeping sampling. Negligible cost,
	// always on.
	SensorReadings bool
	// GPSReadingsPerDay is the dGPS duty cycle.
	GPSReadingsPerDay int
	// GPRS: whether the daily communications window uses the modem.
	GPRS bool
}

// Thresholds are the Table II minimum daily-average voltages.
var thresholds = map[State]float64{
	State3: 12.5,
	State2: 12.0,
	State1: 11.5,
	State0: 0,
}

// Threshold returns the minimum daily-average voltage for s.
func Threshold(s State) float64 { return thresholds[s] }

// PlanFor returns the Table II activity plan for a state.
func PlanFor(s State) Plan {
	p := Plan{ProbeJobs: true, SensorReadings: true}
	switch s {
	case State3:
		p.GPSReadingsPerDay = 12
		p.GPRS = true
	case State2:
		p.GPSReadingsPerDay = 1
		p.GPRS = true
	case State1:
		p.GPRS = true
	case State0:
		// sensing and probe jobs only
	}
	return p
}

// StateForVoltage returns the highest state whose threshold the daily
// average meets.
func StateForVoltage(avgVolts float64) State {
	switch {
	case avgVolts >= thresholds[State3]:
		return State3
	case avgVolts >= thresholds[State2]:
		return State2
	case avgVolts >= thresholds[State1]:
		return State1
	default:
		return State0
	}
}

// DailyAverage computes the mean battery voltage over a day of
// housekeeping samples. It returns false if there are no samples (e.g.
// first run after a power failure cleared the buffer).
func DailyAverage(volts []float64) (float64, bool) {
	if len(volts) == 0 {
		return 0, false
	}
	var sum float64
	for _, v := range volts {
		sum += v
	}
	return sum / float64(len(volts)), true
}

// ApplyOverride combines the local voltage-derived state with the server's
// override, applying both §III safety clamps:
//
//   - never above the local state (the battery has the last word), and
//   - never forced below State1 from outside (communications must survive).
//
// A local State0 stays State0: only the battery itself may ground the
// station.
func ApplyOverride(local, override State) State {
	if !override.Valid() {
		return local
	}
	if override < State1 {
		override = State1 // cannot be forced out of communications
	}
	if override < local {
		return override
	}
	return local
}

// Effective computes the state a station should run, given its local state
// and whether/what the server returned. fetched=false (comms failure) falls
// back to the local state alone: "if the fetching of the over-ride state
// from the server fails for any reason then the system will just rely on
// its local state".
func Effective(local State, override State, fetched bool) State {
	if !fetched {
		return local
	}
	return ApplyOverride(local, override)
}

// MinState returns the lower of two states (the server's pairing rule).
func MinState(a, b State) State {
	if a < b {
		return a
	}
	return b
}
