package recovery

import (
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/hw/dgps"
	"repro/internal/hw/mcu"
	"repro/internal/simenv"
)

func newRig(t *testing.T) (*simenv.Simulator, *mcu.MCU, *dgps.Unit) {
	t.Helper()
	sim := simenv.NewAt(1, time.Date(2009, 8, 1, 0, 0, 0, 0, time.UTC))
	bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 1})
	bus := energy.NewBus(sim, bat, nil, nil)
	m := mcu.New(sim, bus, "mcu")
	u := dgps.New(sim, m, nil, "gps")
	return sim, m, u
}

func TestHealthyClockNoAction(t *testing.T) {
	sim, m, u := newRig(t)
	m.SetLastRun(m.Now())
	c := New(m, u, func(time.Time) { t.Fatal("done fired without recovery") })
	if c.CheckAndRecover() {
		t.Fatal("healthy clock triggered recovery")
	}
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Triggered != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSuspectClockRecoversViaGPS(t *testing.T) {
	sim, m, u := newRig(t)
	// Record a last-run in the "future", then smash the clock to the epoch
	// as a power failure would.
	m.SetLastRun(m.Now())
	m.SetTime(mcu.RTCEpoch)
	var recoveredAt time.Time
	c := New(m, u, func(rtc time.Time) { recoveredAt = rtc })
	if !c.CheckAndRecover() {
		t.Fatal("suspect clock not detected")
	}
	if st := c.Stats(); st.Triggered != 1 || st.Recovered != 0 {
		t.Fatalf("stats %+v right after the check, want one recovery started and none finished", st)
	}
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if recoveredAt.IsZero() {
		t.Fatalf("recovery never completed: %+v", c.Stats())
	}
	if y := recoveredAt.Year(); y != 2009 {
		t.Fatalf("recovered clock reads year %d", y)
	}
	if e := m.ClockError(); e > time.Minute || e < -time.Minute {
		t.Fatalf("clock error %v after recovery", e)
	}
	if st := c.Stats(); st.Recovered != 1 || st.FixAttempts < 1 {
		t.Fatalf("stats %+v", st)
	}
	// A unit left powered would keep recording back to back.
	files := u.FileCount()
	if err := sim.RunFor(2 * dgps.ReadingDuration); err != nil {
		t.Fatal(err)
	}
	if got := u.FileCount(); got != files {
		t.Fatalf("GPS left powered after recovery: %d readings recorded since", got-files)
	}
}

func TestLastRunUpdatedAfterRecovery(t *testing.T) {
	sim, m, u := newRig(t)
	m.SetLastRun(m.Now())
	m.SetTime(mcu.RTCEpoch)
	c := New(m, u, nil)
	c.CheckAndRecover()
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.ClockSuspect() {
		t.Fatal("clock still suspect after recovery")
	}
}

func TestRekickAfterSecondPowerLoss(t *testing.T) {
	sim, m, u := newRig(t)
	m.SetLastRun(m.Now())
	m.SetTime(mcu.RTCEpoch)
	c := New(m, u, nil)
	c.CheckAndRecover()
	// Simulate a second boot before the fix: alarms were wiped; the boot
	// hook calls CheckAndRecover again, which must re-arm the fix alarm.
	c.CheckAndRecover()
	if err := sim.RunFor(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Recovered == 0 {
		t.Fatalf("recovery lost after re-kick: %+v", c.Stats())
	}
}
