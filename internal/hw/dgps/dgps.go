// Package dgps simulates a differential-GPS receiver of the class deployed
// by Glacsweb: a survey-grade unit with its own compact-flash card, powered
// through an MSP430-switched rail, configured to start recording a reading
// automatically whenever it is turned on (§II of the paper — this is what
// lets the microcontroller rather than Linux own dGPS timing).
//
// A reading is ~165 KB, varying with the number of visible satellites, and
// lands on the unit's internal CF card; the Gumstix later drains files over
// a slow RS-232 link. The unit doubles as the station's time source: a GPS
// time fix is available shortly after power-up, unless weather blocks the
// sky view.
package dgps

import (
	"fmt"
	"time"

	"repro/internal/hw/mcu"
	"repro/internal/simenv"
	"repro/internal/weather"
)

// Rail is the MCU power-rail name conventionally used for the dGPS.
const Rail = "gps"

// PowerW is the unit's draw while powered (Table I: 3600 mW).
const PowerW = 3.6

// ReadingDuration is the observation time for one dGPS reading. Twelve
// five-minute readings per day give the 1 h/day duty cycle behind the
// paper's 117-day state-3 lifetime figure.
const ReadingDuration = 5 * time.Minute

// BaseReadingBytes is the nominal size of one reading file ("approximately
// 165KB, although the exact size varies depending on the number of
// satellites available").
const BaseReadingBytes = 165 * 1024

// RS232BytesPerSec is the effective drain rate from the unit's internal CF
// card to the Gumstix (57600 baud line rate less framing ≈ 5.76 KB/s). At
// this rate a two-hour window drains ~21 state-3 days or ~259 state-2 days
// of backlog — the two thresholds §VI derives.
const RS232BytesPerSec = 5760

// TimeFixDelay is power-up to usable GPS time.
const TimeFixDelay = 45 * time.Second

// File is one recorded reading on the unit's internal CF card.
type File struct {
	// ID is a unique sequence number on this unit.
	ID uint64
	// SizeBytes is the file size, which grows with the satellites in view.
	SizeBytes int
}

// TransferTime returns how long draining this file over RS-232 takes at the
// given healthy-rate fraction (1 = nominal; <1 models an intermittent cable).
func (f File) TransferTime(rateFraction float64) time.Duration {
	if rateFraction <= 0 {
		rateFraction = 1e-9
	}
	secs := float64(f.SizeBytes) / (RS232BytesPerSec * rateFraction)
	const maxSecs = 100 * 365 * 24 * 3600 // clamp far beyond any window
	if secs > maxSecs {
		secs = maxSecs
	}
	return time.Duration(secs * float64(time.Second))
}

// Unit is a simulated dGPS receiver.
type Unit struct {
	sim     *simenv.Simulator
	wx      *weather.Model
	name    string
	powered bool

	// files[fileHead:] is the CF card, oldest first. The drain deletes
	// from the head, so the head only advances; the backing array is
	// reused once it empties or fills.
	files    []File
	fileHead int
	nextID   uint64
	readEv   simenv.EventID
	reading  bool
	salt     int64

	// Bound once at construction: the unit records a reading every five
	// minutes while powered, and building a closure plus two name strings
	// per reading dominated the simulation's allocation profile.
	readFn   simenv.EventFunc
	readName string
	satsTag  string
	fixTag   string
}

// New constructs a unit bound to the MCU's gps rail (defining the rail).
// wx may be nil, in which case time fixes always succeed.
func New(sim *simenv.Simulator, ctrl *mcu.MCU, wx *weather.Model, name string) *Unit {
	u := &Unit{sim: sim, wx: wx, name: name, salt: sim.Seed()}
	u.readFn = u.readingDone
	u.readName = name + ".reading"
	u.satsTag = "sats/" + name
	u.fixTag = "fixfail/" + name
	ctrl.DefineRail(Rail, PowerW)
	ctrl.OnRail(Rail, u.railChanged)
	return u
}

//glacvet:hotpath
func (u *Unit) railChanged(on bool, now time.Time) {
	if on == u.powered {
		return
	}
	u.powered = on
	if on {
		// Auto-start recording on power-up; keep recording back-to-back
		// while powered (continuous mode is just "left switched on").
		u.startReading(now)
		return
	}
	// Power removed mid-reading: the partial observation is discarded.
	if u.reading {
		u.sim.Cancel(u.readEv)
		u.reading = false
	}
}

//glacvet:hotpath
func (u *Unit) startReading(now time.Time) {
	u.reading = true
	u.readEv = u.sim.After(ReadingDuration, u.readName, u.readFn)
}

//glacvet:hotpath
func (u *Unit) readingDone(doneNow time.Time) {
	if !u.powered {
		return
	}
	u.reading = false
	u.recordFile()
	u.startReading(doneNow) // continuous until switched off
}

//glacvet:hotpath
func (u *Unit) recordFile() {
	sats := 6 + int(simenv.HashNoise(u.salt, u.satsTag, u.nextID)*8) // 6..13 satellites
	size := int(float64(BaseReadingBytes) * (0.70 + 0.04*float64(sats)))
	f := File{ID: u.nextID, SizeBytes: size}
	u.nextID++
	if len(u.files) == cap(u.files) && u.fileHead > 0 {
		n := copy(u.files, u.files[u.fileHead:])
		u.files, u.fileHead = u.files[:n], 0
	}
	u.files = append(u.files, f)
}

// Files returns a copy of the internal CF card's file list, oldest first.
func (u *Unit) Files() []File {
	live := u.files[u.fileHead:]
	out := make([]File, len(live))
	copy(out, live)
	return out
}

// Oldest returns the oldest file on the internal CF card — the next one a
// file-by-file drain takes — without copying the list.
func (u *Unit) Oldest() (File, bool) {
	if u.fileHead == len(u.files) {
		return File{}, false
	}
	return u.files[u.fileHead], true
}

// FileCount returns the number of files on the internal CF card.
func (u *Unit) FileCount() int { return len(u.files) - u.fileHead }

// Delete removes a drained file from the internal CF card. Deleting the
// oldest file, as the drain does, costs the same at any backlog.
func (u *Unit) Delete(id uint64) error {
	live := u.files[u.fileHead:]
	for i, f := range live {
		if f.ID != id {
			continue
		}
		if i == 0 {
			u.fileHead++
		} else {
			copy(live[i:], live[i+1:])
			u.files = u.files[:len(u.files)-1]
		}
		if u.fileHead == len(u.files) {
			u.files, u.fileHead = u.files[:0], 0
		}
		return nil
	}
	return fmt.Errorf("dgps %s: no file %d on CF card", u.name, id)
}

// InjectBacklog records n synthetic historical files directly onto the CF
// card; used by the watchdog-backlog experiments.
func (u *Unit) InjectBacklog(n int) {
	for i := 0; i < n; i++ {
		u.recordFile()
	}
}

// TimeFix attempts a GPS time fix. The unit must be powered and have been up
// for at least TimeFixDelay (callers schedule around this). A fix fails
// under storms, under deep antenna-burying snow, or with a small background
// probability; failures are deterministic in (seed, day).
func (u *Unit) TimeFix(now time.Time) (time.Time, error) {
	if !u.powered {
		return time.Time{}, fmt.Errorf("dgps %s: time fix requested while unpowered", u.name)
	}
	day := uint64(now.Unix() / 86400)
	if u.wx != nil {
		c := u.wx.Sample(now)
		if c.Storm {
			return time.Time{}, fmt.Errorf("dgps %s: no satellite lock (storm)", u.name)
		}
		if c.SnowDepthM > 2.3 {
			return time.Time{}, fmt.Errorf("dgps %s: no satellite lock (antenna buried, %.1fm snow)", u.name, c.SnowDepthM)
		}
	}
	if simenv.HashNoise(u.salt, u.fixTag, day) < 0.05 {
		return time.Time{}, fmt.Errorf("dgps %s: no satellite lock (poor geometry)", u.name)
	}
	// GPS time is ground truth: the simulator's wall clock.
	return u.sim.Now(), nil
}
