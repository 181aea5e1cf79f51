package gumstix

import (
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/hw/mcu"
	"repro/internal/simenv"
)

func newRig(t *testing.T) (*simenv.Simulator, *mcu.MCU, *Host) {
	t.Helper()
	sim := simenv.New(1)
	bat := energy.NewBattery(energy.BatteryConfig{CapacityAh: 200, InitialSoC: 1})
	bus := energy.NewBus(sim, bat, nil, nil)
	ctrl := mcu.New(sim, bus, nil, mcu.DefaultConfig("mcu"))
	h := New(sim, ctrl, "base")
	return sim, ctrl, h
}

func TestBootAfterRailUp(t *testing.T) {
	sim, ctrl, h := newRig(t)
	booted := false
	h.OnBoot(func(time.Time) { booted = true })
	ctrl.SetRail(Rail, true)
	if h.Booted() {
		t.Fatal("booted instantly")
	}
	if err := sim.RunFor(DefaultBootDelay + time.Second); err != nil {
		t.Fatal(err)
	}
	if !booted || !h.Booted() {
		t.Fatal("did not boot after boot delay")
	}
	if h.Boots() != 1 {
		t.Fatalf("Boots() = %d", h.Boots())
	}
}

func TestJobsRunSequentially(t *testing.T) {
	sim, ctrl, h := newRig(t)
	var order []string
	var tFirst, tSecond time.Time
	h.OnBoot(func(time.Time) {
		h.Do("a", 10*time.Minute, func(now time.Time) { order = append(order, "a"); tFirst = now })
		h.Do("b", 5*time.Minute, func(now time.Time) { order = append(order, "b"); tSecond = now })
	})
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
	if d := tSecond.Sub(tFirst); d != 5*time.Minute {
		t.Fatalf("b finished %v after a, want serial 5m", d)
	}
	if h.CompletedJobs() != 2 {
		t.Fatalf("CompletedJobs = %d", h.CompletedJobs())
	}
}

func TestJobChaining(t *testing.T) {
	sim, ctrl, h := newRig(t)
	depth := 0
	var step func(now time.Time)
	step = func(time.Time) {
		depth++
		if depth < 5 {
			h.Do("next", time.Minute, step)
		}
	}
	h.OnBoot(func(time.Time) { h.Do("first", time.Minute, step) })
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if depth != 5 {
		t.Fatalf("chain depth %d, want 5", depth)
	}
}

func TestPowerCutAbortsJobAndQueue(t *testing.T) {
	sim, ctrl, h := newRig(t)
	aborted := false
	completed := false
	h.OnBoot(func(time.Time) {
		h.Enqueue(Job{
			Name:     "long",
			Duration: func(time.Time) time.Duration { return 3 * time.Hour },
			Run:      func(time.Time) { completed = true },
			Abort:    func(time.Time) { aborted = true },
		})
		h.Do("later", time.Minute, func(time.Time) { completed = true })
	})
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	ctrl.SetRail(Rail, false)
	if err := sim.RunFor(5 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if completed {
		t.Fatal("job completed despite power cut")
	}
	if !aborted {
		t.Fatal("abort callback not fired")
	}
	if h.AbortedJobs() != 1 {
		t.Fatalf("AbortedJobs = %d", h.AbortedJobs())
	}
	if h.QueueLen() != 0 {
		t.Fatal("queue not cleared by power cut")
	}
}

func TestEnqueueWhileUnpoweredIgnored(t *testing.T) {
	sim, _, h := newRig(t)
	h.Do("ghost", time.Minute, func(time.Time) { t.Fatal("job ran on unpowered host") })
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
}

func TestRebootRunsJobsAgain(t *testing.T) {
	sim, ctrl, h := newRig(t)
	runs := 0
	h.OnBoot(func(time.Time) {
		h.Do("daily", time.Minute, func(time.Time) { runs++ })
	})
	for i := 0; i < 3; i++ {
		ctrl.SetRail(Rail, true)
		if err := sim.RunFor(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
		ctrl.SetRail(Rail, false)
		if err := sim.RunFor(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 3 {
		t.Fatalf("daily job ran %d times over 3 boots", runs)
	}
	if h.Boots() != 3 {
		t.Fatalf("Boots = %d", h.Boots())
	}
}

func TestUptimeAccumulates(t *testing.T) {
	sim, ctrl, h := newRig(t)
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	ctrl.SetRail(Rail, false)
	if err := sim.RunFor(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	up := h.Uptime()
	if up < 119*time.Minute || up > 121*time.Minute {
		t.Fatalf("uptime %v, want ~2h", up)
	}
}

func TestGumstixDrawsTableIPower(t *testing.T) {
	sim := simenv.New(1)
	bat := energy.NewBattery(energy.BatteryConfig{CapacityAh: 200, InitialSoC: 1})
	bus := energy.NewBus(sim, bat, nil, nil)
	ctrl := mcu.New(sim, bus, nil, mcu.DefaultConfig("mcu"))
	_ = New(sim, ctrl, "base")
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(10 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// Table I: Gumstix 900 mW → 9 Wh over 10 h on its rail.
	got := bus.ConsumedWh("mcu.rail." + Rail)
	if got < 8.5 || got > 9.5 {
		t.Fatalf("gumstix rail drew %v Wh in 10 h, want ~9 (Table I)", got)
	}
}

func TestDynamicDurationEvaluatedAtStart(t *testing.T) {
	sim, ctrl, h := newRig(t)
	backlog := 10 * time.Minute
	var started, finished time.Time
	h.OnBoot(func(now time.Time) {
		started = now
		h.Enqueue(Job{
			Name:     "drain",
			Duration: func(time.Time) time.Duration { return backlog },
			Run:      func(now time.Time) { finished = now },
		})
		backlog = time.Hour // changing after enqueue must not matter once started
	})
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if d := finished.Sub(started); d != 10*time.Minute {
		t.Fatalf("dynamic job took %v, want the 10m evaluated at start", d)
	}
}

func TestEnqueueFrontRunsBeforeQueuedWork(t *testing.T) {
	sim, ctrl, h := newRig(t)
	var order []string
	h.OnBoot(func(time.Time) {
		h.Do("first", time.Minute, func(time.Time) {
			order = append(order, "first")
			// Chain a continuation at the head: it must run before "later".
			h.EnqueueFront(FixedJob("cont", time.Minute, func(time.Time) {
				order = append(order, "cont")
			}))
		})
		h.Do("later", time.Minute, func(time.Time) { order = append(order, "later") })
	})
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "cont", "later"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestEnqueueFrontWhileUnpoweredIgnored(t *testing.T) {
	sim, _, h := newRig(t)
	h.EnqueueFront(FixedJob("ghost", time.Minute, func(time.Time) {
		t.Fatal("front job ran on unpowered host")
	}))
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
}
