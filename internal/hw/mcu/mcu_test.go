package mcu

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/simenv"
	"repro/internal/weather"
)

func newRig(t *testing.T, soc float64) (*simenv.Simulator, *energy.Bus, *MCU) {
	t.Helper()
	sim := simenv.New(1)
	bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: soc})
	wx := weather.New(1)
	bus := energy.NewBus(sim, bat, nil, wx)
	m := New(sim, bus, "mcu")
	return sim, bus, m
}

func TestRTCStartsCorrectOnColdStart(t *testing.T) {
	sim, _, m := newRig(t, 1)
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if e := m.ClockError(); e < 0 || e > time.Second {
		t.Fatalf("cold-start clock error %v, want ~0 (small positive drift)", e)
	}
}

func TestRTCDrifts(t *testing.T) {
	sim := simenv.New(1)
	bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 1})
	bus := energy.NewBus(sim, bat, nil, nil)
	m := New(sim, bus, "m")
	if err := sim.RunFor(240 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// 8 ppm over 240h = 6.912s fast.
	e := m.ClockError()
	if e < 6800*time.Millisecond || e > 7000*time.Millisecond {
		t.Fatalf("clock error %v after 240h at %v ppm, want ~6.9s", e, driftPPM)
	}
}

func TestSetTimeCorrectsClock(t *testing.T) {
	sim, _, m := newRig(t, 1)
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	m.SetTime(sim.Now())
	if e := m.ClockError(); e != 0 {
		t.Fatalf("clock error %v immediately after SetTime, want 0", e)
	}
}

// buffered is the number of housekeeping samples awaiting a drain.
func buffered(m *MCU) int { return len(m.samples) - m.sampleHead }

func TestHousekeepingSamplesEvery30Min(t *testing.T) {
	sim, _, m := newRig(t, 1)
	if err := sim.RunFor(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if n := buffered(m); n != 12 {
		t.Fatalf("%d samples after 6h, want 12", n)
	}
	s := m.DrainSamples()
	if len(s) != 12 {
		t.Fatalf("drained %d", len(s))
	}
	if buffered(m) != 0 {
		t.Fatal("buffer not cleared by drain")
	}
	if s[0] < 11 || s[0] > 14.7 {
		t.Fatalf("implausible voltage sample %v", s[0])
	}
}

func TestSampleBufferBounded(t *testing.T) {
	sim := simenv.New(1)
	bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 1})
	bus := energy.NewBus(sim, bat, nil, nil)
	m := New(sim, bus, "m")
	now := sim.Now()
	for i := 0; i < sampleBufferCap+10; i++ {
		now = now.Add(SampleInterval)
		m.takeSample(now)
	}
	if n := buffered(m); n != sampleBufferCap {
		t.Fatalf("buffer holds %d, cap %d", n, sampleBufferCap)
	}
}

func TestAlarmFiresAtRTCTime(t *testing.T) {
	sim, _, m := newRig(t, 1)
	fired := false
	m.AlarmAfter(2*time.Hour, "wake", func(time.Time) { fired = true })
	if err := sim.RunFor(119 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("alarm fired early")
	}
	if err := sim.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("alarm did not fire")
	}
}

func TestCancelAlarm(t *testing.T) {
	sim, _, m := newRig(t, 1)
	id := m.AlarmAfter(time.Hour, "wake", func(time.Time) { t.Fatal("cancelled alarm fired") })
	m.CancelAlarm(id)
	if err := sim.RunFor(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
}

// The bus carries the reference station's fit, a 20 W panel and the 60 W
// café mains, live through the whole window (the simulation starts on
// 1 September, inside the April–September season), so the battery
// recovers whatever the weather does. The drain outruns both chargers and
// empties the bank in its first hour, too early in that hour for them to
// bring it back to the recovery voltage before the hour is out.
func TestPowerLossResetsRTCAndClearsSchedule(t *testing.T) {
	sim := simenv.New(1)
	bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 0.08})
	chargers := []energy.Charger{energy.NewSolarPanel(20), energy.NewMainsCharger(60)}
	bus := energy.NewBus(sim, bat, chargers, weather.New(1))
	m := New(sim, bus, "mcu")
	m.AlarmAfter(100*time.Hour, "wake", func(time.Time) { t.Fatal("RAM alarm survived power loss") })
	bus.SetLoad("drain", 200)
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.Alive() {
		t.Fatal("MCU survived total depletion")
	}
	if len(m.alarms) != 0 {
		t.Fatalf("%d alarms survived", len(m.alarms))
	}
	if err := sim.RunFor(300 * time.Hour); err != nil { // mains and solar recharge
		t.Fatal(err)
	}
	if !m.Alive() {
		t.Fatal("MCU not powered again after 300 h on mains")
	}
	// §IV: RTC resets to 01/01/1970.
	if y := m.Now().Year(); y > 1971 {
		t.Fatalf("RTC year %d after power loss, want epoch-ish", y)
	}
}

func TestClockSuspectDetectsReset(t *testing.T) {
	sim, _, m := newRig(t, 1)
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	m.SetLastRun(m.Now())
	if m.ClockSuspect() {
		t.Fatal("healthy clock flagged suspect")
	}
	// Simulate post-power-loss state: RTC at epoch, NV intact.
	m.SetTime(RTCEpoch)
	if !m.ClockSuspect() {
		t.Fatal("epoch-reset clock not flagged suspect")
	}
}

// The flash keeps whole seconds: a clock between the recorded run's whole
// second and its exact instant is not behind it.
func TestClockSuspectToTheSecond(t *testing.T) {
	_, _, m := newRig(t, 1)
	whole := time.Date(2009, time.September, 22, 12, 0, 0, 0, time.UTC)
	m.SetLastRun(whole.Add(700 * time.Millisecond))
	m.SetTime(whole.Add(300 * time.Millisecond))
	if m.ClockSuspect() {
		t.Fatal("clock inside the recorded run's second flagged suspect")
	}
	m.SetTime(whole.Add(-time.Millisecond))
	if !m.ClockSuspect() {
		t.Fatal("clock behind the recorded run's second not flagged suspect")
	}
}

func TestNVStoreSurvivesPowerLoss(t *testing.T) {
	sim, bus, m := newRig(t, 0.08)
	last := time.Date(2009, time.September, 22, 12, 0, 0, 0, time.UTC)
	m.SetLastRun(last)
	bus.SetLoad("drain", 60)
	if err := sim.RunFor(400 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if !m.lastRun.Equal(last) {
		t.Fatalf("last run %v after a power cycle, want %v", m.lastRun, last)
	}
}

func TestRailSwitching(t *testing.T) {
	sim, bus, m := newRig(t, 1)
	m.DefineRail("gps", 3.6)
	var events []bool
	m.OnRail("gps", func(on bool, _ time.Time) { events = append(events, on) })
	sleeping := bus.TotalLoadW()
	m.SetRail("gps", true)
	if !m.rail("gps").on {
		t.Fatal("rail not on")
	}
	if got := bus.TotalLoadW() - sleeping; math.Abs(got-3.6) > 1e-12 {
		t.Fatalf("rail added %v W to the bus, want 3.6", got)
	}
	m.SetRail("gps", true) // no-op
	m.SetRail("gps", false)
	if got := bus.TotalLoadW(); got != sleeping {
		t.Fatalf("bus draws %v W with the rail off, want %v", got, sleeping)
	}
	if len(events) != 2 || !events[0] || events[1] {
		t.Fatalf("rail events %v, want [true false]", events)
	}
	_ = sim
}

func TestSetRailUndefinedPanics(t *testing.T) {
	_, _, m := newRig(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for undefined rail")
		}
	}()
	m.SetRail("nonexistent", true)
}

func TestRailsDropOnPowerFail(t *testing.T) {
	sim, bus, m := newRig(t, 0.05)
	m.DefineRail("gps", 3.6)
	var last bool = true
	m.OnRail("gps", func(on bool, _ time.Time) { last = on })
	m.SetRail("gps", true)
	bus.SetLoad("drain", 80)
	if err := sim.RunFor(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.Alive() {
		t.Fatal("MCU should be dead")
	}
	if last {
		t.Fatal("rail subscriber not told about power loss")
	}
	if m.rail("gps").on {
		t.Fatal("rail still on after power loss")
	}
}

// TestPowerFailDropsRailsInDefinitionOrder fails power on fresh MCUs and
// checks that the rails' off-callbacks run in the order the rails were
// defined, every time: a subscriber that schedules or aborts work on
// power loss must see the same sequence in every run of a seed.
func TestPowerFailDropsRailsInDefinitionOrder(t *testing.T) {
	rails := []string{"gumstix", "gps", "gprs", "probe-radio"}
	for trial := 0; trial < 20; trial++ {
		sim, bus, m := newRig(t, 0.05)
		var dropped []string
		for _, name := range rails {
			m.DefineRail(name, 0.5)
			m.OnRail(name, func(on bool, _ time.Time) {
				if !on {
					dropped = append(dropped, name)
				}
			})
			m.SetRail(name, true)
		}
		bus.SetLoad("drain", 80)
		if err := sim.RunFor(24 * time.Hour); err != nil {
			t.Fatal(err)
		}
		if m.Alive() {
			t.Fatal("MCU should be dead")
		}
		if !slices.Equal(dropped, rails) {
			t.Fatalf("trial %d: rails dropped in order %v, want definition order %v", trial, dropped, rails)
		}
	}
}

func TestOnRailUndefinedPanics(t *testing.T) {
	_, _, m := newRig(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for subscribing to an undefined rail")
		}
	}()
	m.OnRail("nonexistent", func(bool, time.Time) {})
}

func TestBootHookRunsOnStartAndRestore(t *testing.T) {
	sim := simenv.New(3)
	bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 0.3})
	wx := weather.New(3)
	bus := energy.NewBus(sim, bat, []energy.Charger{energy.NewSolarPanel(30)}, wx)
	m := New(sim, bus, "m")
	var colds, warms int
	m.OnBoot(func(_ time.Time, cold bool) {
		if cold {
			colds++
		} else {
			warms++
		}
	})
	// The hook registered after construction fires only on later boots;
	// drain the battery and let summer sun restore it.
	bus.SetLoad("drain", 40)
	start := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	_ = start
	if err := sim.RunFor(10 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if bus.FailCount() == 0 {
		t.Fatal("no power failure induced")
	}
	if warms == 0 {
		t.Fatalf("no warm boots after %d failures", bus.FailCount())
	}
}

// Alarms due at one RTC instant fire in the order they were armed, also
// after SetTime re-arms them against a corrected clock. Each fresh MCU
// re-arms from a fresh map, so 20 of them would expose an order drawn
// from map iteration.
func TestSetTimeKeepsArmOrderForSimultaneousAlarms(t *testing.T) {
	for run := range 20 {
		sim, _, m := newRig(t, 1)
		due := m.Now().Add(time.Hour)
		var fired []string
		names := []string{"a", "b", "c", "d", "e"}
		for _, name := range names {
			m.AlarmAt(due, name, func(time.Time) { fired = append(fired, name) })
		}
		m.SetTime(sim.Now().Add(time.Minute))
		if err := sim.RunFor(2 * time.Hour); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(fired, names) {
			t.Fatalf("run %d: alarms fired in order %v, want arm order %v", run, fired, names)
		}
	}
}
