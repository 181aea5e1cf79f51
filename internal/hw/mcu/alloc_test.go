package mcu

import (
	"testing"
	"time"
)

// These tests pin the MCU's steady-state allocation discipline: the
// 30-minute housekeeping sample, the Gumstix's daily drain of that buffer,
// and arming plus firing an RTC alarm (the daily wake, the watchdog and
// the dGPS duty cycle) run every simulated day at every station, so they
// must not touch the heap once the buffers and the alarm free list exist.
//
// The same set carries //glacvet:hotpath in mcu.go (takeSample,
// DrainSamples, AlarmAt, newAlarm, releaseAlarm, armAlarm, fireAlarm,
// SetRail, rail):
// `make lint` rejects the allocation patterns statically, these pins catch
// whatever slips past the lint at runtime. Keep the two sets in sync.

func TestSampleDrainAllocFree(t *testing.T) {
	sim, _, m := newRig(t, 1)
	now := sim.Now()
	day := func() {
		for i := 0; i < 48; i++ {
			now = now.Add(SampleInterval)
			m.takeSample(now)
		}
		if n := len(m.DrainSamples()); n != 48 {
			t.Fatalf("drained %d samples, want 48", n)
		}
	}
	day() // warm: the weather model's day cache
	avg := testing.AllocsPerRun(50, day)
	if avg != 0 {
		t.Fatalf("a day of housekeeping samples plus the drain allocates %.1f objects/op, want 0", avg)
	}
}

func TestSampleFullBufferAllocFree(t *testing.T) {
	sim, _, m := newRig(t, 1)
	now := sim.Now()
	for i := 0; i < sampleBufferCap+36; i++ {
		now = now.Add(SampleInterval)
		m.takeSample(now)
	}
	// The runs together take 6000 samples past a full buffer, several
	// compactions of its backing array, so an amortized regrowth (a drop
	// that gives up a slot of capacity) shows in the per-op count.
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 300; i++ {
			now = now.Add(SampleInterval)
			m.takeSample(now)
		}
	})
	if avg != 0 {
		t.Fatalf("sampling into a full buffer allocates %.1f objects/op, want 0", avg)
	}
	if buffered(m) != sampleBufferCap {
		t.Fatalf("full buffer holds %d samples, want %d", buffered(m), sampleBufferCap)
	}
}

func TestAlarmArmFireAllocFree(t *testing.T) {
	sim, _, m := newRig(t, 1)
	fired := 0
	fn := func(time.Time) { fired++ }
	armFire := func() {
		m.AlarmAfter(time.Minute, "tick", fn)
		if err := sim.RunFor(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	armFire() // warm: the free list, the interned name, the event slots
	avg := testing.AllocsPerRun(200, armFire)
	if avg != 0 {
		t.Fatalf("AlarmAt plus firing allocates %.1f objects/op, want 0", avg)
	}
	if fired != 202 { // warm-up + AllocsPerRun's own warm-up run + 200
		t.Fatalf("alarm fired %d times, want 202", fired)
	}
}

func TestRailSwitchAllocFree(t *testing.T) {
	_, _, m := newRig(t, 1)
	for _, name := range []string{"gumstix", "gps", "gprs"} {
		m.DefineRail(name, 1)
	}
	calls := 0
	m.OnRail("gprs", func(bool, time.Time) { calls++ })
	cycle := func() {
		m.SetRail("gprs", true)
		m.SetRail("gprs", false)
	}
	cycle() // warm: the bus load entry for the rail
	avg := testing.AllocsPerRun(200, cycle)
	if avg != 0 {
		t.Fatalf("switching a rail on and off allocates %.1f objects/op, want 0", avg)
	}
	if calls != 2*202 {
		t.Fatalf("subscriber saw %d switches, want %d", calls, 2*202)
	}
}
