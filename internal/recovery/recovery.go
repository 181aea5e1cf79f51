// Package recovery implements the paper's automatic schedule resetting
// (§IV): bringing a station back to a safe, correctly-timed schedule after
// total battery exhaustion.
//
// After a power failure the MSP430's RAM schedule is gone and its RTC has
// reset to 01/01/1970. The node detects this by comparing the clock against
// the last successful run recorded in non-volatile flash: "it then checks
// that its current time is before the last time the system ran; if that
// fails it knows that the real time clock is not to be trusted". Recovery
// turns on the GPS, takes a time fix, corrects the clock, and restarts the
// schedule in power state 0; if the fix fails "the system will sleep for a
// day and try again".
package recovery

import (
	"time"

	"repro/internal/hw/dgps"
	"repro/internal/hw/mcu"
)

// FixSettleTime is how long after powering the dGPS the coordinator waits
// before asking for a time fix.
const FixSettleTime = dgps.TimeFixDelay + 30*time.Second

// RetryInterval is the sleep between failed fix attempts ("sleep for a day
// and try again").
const RetryInterval = 24 * time.Hour

// Stats counts recovery activity for reports and tests.
type Stats struct {
	// Triggered is how many checks found a suspect clock.
	Triggered int
	// FixAttempts counts GPS time-fix attempts.
	FixAttempts int
	// FixFailures counts failed attempts (each costs a day).
	FixFailures int
	// Recovered counts completed recoveries.
	Recovered int
}

// Coordinator drives the §IV recovery procedure on one node.
type Coordinator struct {
	mcu  *mcu.MCU
	gps  *dgps.Unit
	done func(rtcNow time.Time)

	stats Stats
}

// New builds a coordinator. done is invoked once the clock is trusted
// again, with the corrected RTC time; the station uses it to rewrite the
// schedule and restart in power state 0.
func New(m *mcu.MCU, gps *dgps.Unit, done func(rtcNow time.Time)) *Coordinator {
	return &Coordinator{mcu: m, gps: gps, done: done}
}

// Stats returns a copy of the recovery counters.
func (c *Coordinator) Stats() Stats { return c.stats }

// CheckAndRecover runs the boot-time clock check. It returns true if the
// clock was suspect and a recovery was started; the done callback fires
// (possibly days later) when the clock is trusted again. If the clock is
// healthy it returns false and does nothing.
func (c *Coordinator) CheckAndRecover() bool {
	if !c.mcu.ClockSuspect() {
		return false
	}
	c.stats.Triggered++
	// CheckAndRecover only runs from boot hooks, where any previous
	// attempt's alarms have been wiped with the rest of RAM — so a recovery
	// already "in progress" must be re-kicked, not skipped.
	c.attemptFix()
	return true
}

func (c *Coordinator) attemptFix() {
	// Power the GPS and let it settle before asking for time.
	c.mcu.SetRail(dgps.Rail, true)
	c.mcu.AlarmAfter(FixSettleTime, "recovery.fix", func(rtcNow time.Time) {
		c.stats.FixAttempts++
		fixed, err := c.gps.TimeFix(rtcNow)
		c.mcu.SetRail(dgps.Rail, false)
		if err != nil {
			// "If the system cannot set the time using GPS then the system
			// will sleep for a day and try again."
			c.stats.FixFailures++
			c.mcu.AlarmAfter(RetryInterval, "recovery.retry", func(time.Time) {
				if !c.mcu.Alive() {
					return
				}
				c.attemptFix()
			})
			return
		}
		c.mcu.SetTime(fixed)
		c.mcu.SetLastRun(fixed) // the clock is now trusted
		c.stats.Recovered++
		if c.done != nil {
			c.done(c.mcu.Now())
		}
	})
}
