// Package mcu simulates the MSP430 microcontroller on a Gumsense board.
//
// The MSP430 is the always-on half of the dual-processor platform: it keeps
// the real-time clock, holds the wake-up schedule in RAM, samples the battery
// voltage every thirty minutes, and switches power to every peripheral
// including the Gumstix itself. Its two crucial failure semantics, both
// described in §IV of the paper, are reproduced exactly:
//
//   - On total power loss the RAM schedule is lost and the RTC resets to the
//     Unix epoch (01/01/1970 00:00), so on recovery the clock reads a time
//     far in the past.
//   - A small non-volatile store (flash) survives power loss; the system
//     records the last time it successfully ran there, which is how the
//     recovery logic detects that the RTC is not to be trusted.
package mcu

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/energy"
	"repro/internal/simenv"
)

// RTCEpoch is the value the real-time clock resets to on total power loss.
var RTCEpoch = time.Date(1970, time.January, 1, 0, 0, 0, 0, time.UTC)

// SampleInterval is the firmware's battery/housekeeping sampling period.
const SampleInterval = 30 * time.Minute

// sleepW is the quiescent draw of the MSP430 and Gumsense board. The whole
// point of the platform is that this is tiny (~1 mW class).
const sleepW = 0.003

// The Gumsense MSP430's fit.
const (
	// driftPPM is RTC crystal drift in parts per million (positive = fast).
	driftPPM float64 = 8
	// sampleBufferCap bounds the in-RAM housekeeping sample buffer.
	sampleBufferCap = 4096
)

// AlarmID identifies a scheduled RTC alarm.
type AlarmID uint64

type alarm struct {
	id  AlarmID
	rtc time.Time // alarm time in RTC time
	fn  func(rtcNow time.Time)
	ev  simenv.EventID

	// evName is interned and fireFn is bound once per record, which the
	// MCU's free list recycles, so neither arming nor the SetTime re-arms
	// (after every clock recovery) allocate a closure or a name string.
	evName string
	fireFn simenv.EventFunc
}

// MCU is a simulated MSP430 attached to a power bus. All methods must be
// called from the simulation goroutine.
type MCU struct {
	sim  *simenv.Simulator
	bus  *energy.Bus
	name string // prefixes the MCU's load and event names

	alive bool
	// rtcBase/wallBase anchor the RTC: rtcNow = rtcBase + (wall-wallBase)*(1+drift).
	rtcBase  time.Time
	wallBase time.Time

	alarms    map[AlarmID]*alarm
	nextAlarm AlarmID
	// freeAlarms holds fired and cancelled alarm records for reuse, so a
	// record's fireFn closure is bound once rather than once per arm.
	freeAlarms []*alarm
	// rearm is SetTime's scratch list of pending alarms, sorted into arm
	// order so that alarms due at one instant keep their relative order.
	rearm []*alarm

	rails []rail // in definition order

	// Interned hot-path names (housekeeping samples and alarm arms
	// otherwise rebuild the same strings all season).
	sampleName string
	alarmNames map[string]string

	// samples[sampleHead:] is the housekeeping buffer of battery voltages
	// read by the ADC. The backing array is reused across daily drains
	// and full-buffer drops.
	samples    []float64
	sampleHead int

	// lastRun is the last successful run time kept in flash, to the
	// second; it survives power loss. Zero means none recorded yet.
	lastRun time.Time

	onBoot []func(rtcNow time.Time, coldStart bool)

	sampleTicker *simenv.Ticker
}

// New constructs an MCU named name, attaches its sleep load to the bus,
// wires power fail/restore, and starts it alive.
func New(sim *simenv.Simulator, bus *energy.Bus, name string) *MCU {
	m := &MCU{
		sim:        sim,
		bus:        bus,
		name:       name,
		alarms:     make(map[AlarmID]*alarm),
		alarmNames: make(map[string]string),
	}
	// The Gumstix drains the buffer daily: size it for a day of samples.
	m.samples = make([]float64, 0, min(sampleBufferCap, int(24*time.Hour/SampleInterval)+1))
	m.sampleName = name + ".sample"
	bus.OnPowerFail(m.powerFail)
	bus.OnPowerRestore(m.powerRestore)
	m.start(sim.Now(), true)
	return m
}

// Alive reports whether the MCU has power.
func (m *MCU) Alive() bool { return m.alive }

// OnBoot registers a firmware boot hook, invoked on initial start and after
// every recovery from total power loss. coldStart is true only for the very
// first start (when the RTC was set on the bench before deployment).
func (m *MCU) OnBoot(fn func(rtcNow time.Time, coldStart bool)) {
	m.onBoot = append(m.onBoot, fn)
}

func (m *MCU) start(now time.Time, cold bool) {
	m.alive = true
	if cold {
		// Bench-set clock: starts correct.
		m.rtcBase = now
	} else {
		// §IV: "the real time clock will have reset to 0 which is
		// 01/01/1970 00:00".
		m.rtcBase = RTCEpoch
	}
	m.wallBase = now
	m.bus.SetLoad(m.loadName(), sleepW)
	m.sampleTicker = m.sim.Every(now.Add(SampleInterval), SampleInterval, m.sampleName, m.takeSample)
	for _, fn := range m.onBoot {
		fn(m.Now(), cold)
	}
}

func (m *MCU) powerFail(now time.Time) {
	m.alive = false
	// RAM contents are lost: schedule, housekeeping buffer, rail states.
	for _, a := range m.alarms {
		m.sim.Cancel(a.ev)
		m.releaseAlarm(a)
	}
	clear(m.alarms)
	m.samples, m.sampleHead = m.samples[:0], 0
	if m.sampleTicker != nil {
		m.sampleTicker.Stop()
	}
	for i := range m.rails {
		if r := &m.rails[i]; r.on {
			r.on = false
			for _, fn := range r.subs {
				fn(false, now)
			}
		}
	}
}

func (m *MCU) powerRestore(now time.Time) {
	m.start(now, false)
}

func (m *MCU) loadName() string { return m.name + ".sleep" }

// --- RTC ---

// Now returns the current RTC time, including crystal drift.
//
//glacvet:hotpath
func (m *MCU) Now() time.Time {
	if !m.alive {
		return RTCEpoch
	}
	elapsed := m.sim.Now().Sub(m.wallBase)
	driftAdj := time.Duration(float64(elapsed) * driftPPM / 1e6)
	return m.rtcBase.Add(elapsed + driftAdj)
}

// SetTime sets the RTC (e.g. from a GPS fix) and re-arms pending alarms
// against the corrected clock, in the order they were armed: alarms due at
// one RTC instant then fire in arm order, as they would have without the
// correction.
func (m *MCU) SetTime(t time.Time) {
	m.mustBeAlive("SetTime")
	m.rtcBase = t
	m.wallBase = m.sim.Now()
	m.rearm = m.rearm[:0]
	for _, a := range m.alarms {
		m.rearm = append(m.rearm, a)
	}
	slices.SortFunc(m.rearm, func(a, b *alarm) int { return cmp.Compare(a.id, b.id) })
	for _, a := range m.rearm {
		m.sim.Cancel(a.ev)
		m.armAlarm(a)
	}
}

// ClockError returns RTC time minus true (simulated wall) time.
func (m *MCU) ClockError() time.Duration {
	return m.Now().Sub(m.sim.Now())
}

// --- Non-volatile store ---

// SetLastRun records the last successful run time in flash, to the
// second.
func (m *MCU) SetLastRun(t time.Time) { m.lastRun = t.Truncate(time.Second) }

// ClockSuspect reports whether the RTC is behind the recorded last
// successful run — the paper's test for "the RTC is not to be trusted".
func (m *MCU) ClockSuspect() bool {
	return !m.lastRun.IsZero() && m.Now().Before(m.lastRun)
}

// --- Alarms (RAM schedule) ---

// AlarmAt schedules fn at the given RTC time. Alarms live in RAM: they are
// lost on power failure. Alarms in the RTC's past fire immediately.
//
//glacvet:hotpath
func (m *MCU) AlarmAt(rtc time.Time, name string, fn func(rtcNow time.Time)) AlarmID {
	m.mustBeAlive("AlarmAt")
	m.nextAlarm++
	a := m.newAlarm()
	a.id, a.rtc, a.fn = m.nextAlarm, rtc, fn
	a.evName = m.alarmEventName(name)
	m.alarms[a.id] = a
	m.armAlarm(a)
	return a.id
}

// newAlarm takes a record from the free list, or builds one with its
// fireFn bound to it for good.
//
//glacvet:hotpath
func (m *MCU) newAlarm() *alarm {
	if n := len(m.freeAlarms); n > 0 {
		a := m.freeAlarms[n-1]
		m.freeAlarms = m.freeAlarms[:n-1]
		return a
	}
	a := &alarm{}
	//glacvet:allow hotpath free-list miss path: one closure per record, reused by every later arm
	a.fireFn = func(time.Time) { m.fireAlarm(a) }
	return a
}

// releaseAlarm returns a record that is out of m.alarms and has no pending
// event to the free list. It drops the callback so the list pins nothing.
//
//glacvet:hotpath
func (m *MCU) releaseAlarm(a *alarm) {
	a.fn = nil
	m.freeAlarms = append(m.freeAlarms, a)
}

// alarmEventName interns "<mcu>.alarm.<name>": the schedule reuses a small
// fixed set of alarm names every day.
//
//glacvet:hotpath
func (m *MCU) alarmEventName(name string) string {
	if s, ok := m.alarmNames[name]; ok {
		return s
	}
	//glacvet:allow hotpath interning miss path: the concat runs once per distinct alarm name, not per arm
	s := m.name + ".alarm." + name
	m.alarmNames[name] = s
	return s
}

// AlarmAfter schedules fn after d of RTC time.
func (m *MCU) AlarmAfter(d time.Duration, name string, fn func(rtcNow time.Time)) AlarmID {
	return m.AlarmAt(m.Now().Add(d), name, fn)
}

// CancelAlarm removes a pending alarm.
func (m *MCU) CancelAlarm(id AlarmID) {
	a, ok := m.alarms[id]
	if !ok {
		return
	}
	m.sim.Cancel(a.ev)
	delete(m.alarms, id)
	m.releaseAlarm(a)
}

//glacvet:hotpath
func (m *MCU) armAlarm(a *alarm) {
	// Convert RTC alarm time to wall time using the current anchoring.
	wait := a.rtc.Sub(m.Now())
	if wait < 0 {
		wait = 0
	}
	a.ev = m.sim.After(wait, a.evName, a.fireFn)
}

//glacvet:hotpath
func (m *MCU) fireAlarm(a *alarm) {
	if !m.alive {
		return
	}
	if _, live := m.alarms[a.id]; !live {
		return
	}
	delete(m.alarms, a.id)
	fn := a.fn
	m.releaseAlarm(a) // fn may re-arm and take this record straight back
	fn(m.Now())
}

// --- Power rails ---

// rail is one switched power rail: its draw, its bus load, its state and
// its subscribers.
type rail struct {
	name  string
	watts float64 // draw while on
	load  string  // interned bus load name
	on    bool
	subs  []func(on bool, now time.Time)
}

// rail returns the named rail's record, or nil if it was never defined. A
// board has a handful of rails, so a scan beats hashing the name.
//
//glacvet:hotpath
func (m *MCU) rail(name string) *rail {
	for i := range m.rails {
		if m.rails[i].name == name {
			return &m.rails[i]
		}
	}
	return nil
}

// DefineRail declares a named switched rail and its on-state draw in watts.
// Redefining a rail changes its draw.
func (m *MCU) DefineRail(name string, watts float64) {
	if watts < 0 {
		panic(fmt.Sprintf("mcu: negative rail wattage %v", watts))
	}
	if r := m.rail(name); r != nil {
		r.watts = watts
		return
	}
	m.rails = append(m.rails, rail{name: name, watts: watts, load: m.name + ".rail." + name})
}

// OnRail subscribes to power changes of a defined rail (peripherals use
// this to know when they gain or lose power).
func (m *MCU) OnRail(name string, fn func(on bool, now time.Time)) {
	r := m.rail(name)
	if r == nil {
		panic(fmt.Sprintf("mcu: undefined rail %q", name))
	}
	r.subs = append(r.subs, fn)
}

// SetRail switches a rail on or off. No-ops when the MCU is dead or the
// state is unchanged.
//
//glacvet:hotpath
func (m *MCU) SetRail(name string, on bool) {
	if !m.alive {
		return
	}
	r := m.rail(name)
	if r == nil {
		//glacvet:allow hotpath the Sprintf is on the panic path only; defined rails never reach it
		panic(fmt.Sprintf("mcu: undefined rail %q", name))
	}
	if r.on == on {
		return
	}
	r.on = on
	if on {
		m.bus.SetLoad(r.load, r.watts)
	} else {
		m.bus.SetLoad(r.load, 0)
	}
	for _, fn := range r.subs {
		fn(on, m.sim.Now())
	}
}

// --- Housekeeping sampling ---

//glacvet:hotpath
func (m *MCU) takeSample(time.Time) {
	if !m.alive {
		return
	}
	if len(m.samples)-m.sampleHead >= sampleBufferCap {
		m.sampleHead++ // drop the oldest without giving up its slot
	}
	if len(m.samples) == cap(m.samples) && m.sampleHead > 0 {
		n := copy(m.samples, m.samples[m.sampleHead:])
		m.samples, m.sampleHead = m.samples[:n], 0
	}
	m.samples = append(m.samples, m.bus.VoltageNow())
}

// DrainSamples returns and clears the housekeeping buffer — the daily
// download to the Gumstix that feeds the power-state averaging. The result
// aliases the MCU's buffer, which the next housekeeping sample reuses: read
// it straight away and copy anything kept longer.
//
//glacvet:hotpath
func (m *MCU) DrainSamples() []float64 {
	out := m.samples[m.sampleHead:]
	m.samples, m.sampleHead = m.samples[:0], 0
	return out
}

func (m *MCU) mustBeAlive(op string) {
	if !m.alive {
		panic(fmt.Sprintf("mcu %s: %s on dead MCU", m.name, op))
	}
}
