package gumstix

import (
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/hw/mcu"
	"repro/internal/simenv"
)

// fixedJob builds a Job with a constant duration that calls run on
// completion.
func fixedJob(name string, d time.Duration, run func(now time.Time)) Job {
	return Job{Name: name, Work: func(time.Time) (time.Duration, func(time.Time)) { return d, run }}
}

func newRig(t *testing.T) (*simenv.Simulator, *mcu.MCU, *Host) {
	t.Helper()
	sim := simenv.New(1)
	bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 1})
	bus := energy.NewBus(sim, bat, nil, nil)
	ctrl := mcu.New(sim, bus, "mcu")
	h := New(sim, ctrl, "base")
	return sim, ctrl, h
}

func TestBootAfterRailUp(t *testing.T) {
	sim, ctrl, h := newRig(t)
	boots := 0
	h.OnBoot(func(time.Time) { boots++ })
	ctrl.SetRail(Rail, true)
	if h.booted {
		t.Fatal("booted instantly")
	}
	if err := sim.RunFor(DefaultBootDelay + time.Second); err != nil {
		t.Fatal(err)
	}
	if boots != 1 || !h.booted {
		t.Fatalf("%d boots after the boot delay, want 1", boots)
	}
}

func TestJobsRunSequentially(t *testing.T) {
	sim, ctrl, h := newRig(t)
	var order []string
	var tFirst, tSecond time.Time
	h.OnBoot(func(time.Time) {
		h.Enqueue(fixedJob("a", 10*time.Minute, func(now time.Time) { order = append(order, "a"); tFirst = now }))
		h.Enqueue(fixedJob("b", 5*time.Minute, func(now time.Time) { order = append(order, "b"); tSecond = now }))
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
}

func TestJobChaining(t *testing.T) {
	sim, ctrl, h := newRig(t)
	depth := 0
	var step func(now time.Time)
	step = func(time.Time) {
		depth++
		if depth < 5 {
			h.Enqueue(fixedJob("next", time.Minute, step))
		}
	}
	h.OnBoot(func(time.Time) { h.Enqueue(fixedJob("first", time.Minute, step)) })
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
	completed := false
	h.OnBoot(func(time.Time) {
		h.Enqueue(fixedJob("long", 3*time.Hour, func(time.Time) { completed = true }))
		h.Enqueue(fixedJob("later", time.Minute, func(time.Time) { completed = true }))
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
	if len(h.queue) != h.head {
		t.Fatal("queue not cleared by power cut")
	}
}

func TestEnqueueWhileUnpoweredIgnored(t *testing.T) {
	sim, _, h := newRig(t)
	h.Enqueue(fixedJob("ghost", time.Minute, func(time.Time) { t.Fatal("job ran on unpowered host") }))
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
}

func TestRebootRunsJobsAgain(t *testing.T) {
	sim, ctrl, h := newRig(t)
	runs, boots := 0, 0
	h.OnBoot(func(time.Time) {
		boots++
		h.Enqueue(fixedJob("daily", time.Minute, func(time.Time) { runs++ }))
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
	if boots != 3 {
		t.Fatalf("%d boots, want 3", boots)
	}
}

// TestUptimeAccumulates measures the host's powered time by what it cost
// the battery: 2 h on and 2 h off draw 2 h of Table I's 900 mW.
func TestUptimeAccumulates(t *testing.T) {
	sim := simenv.New(1)
	bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 1})
	ctrl := mcu.New(sim, energy.NewBus(sim, bat, nil, nil), "mcu")
	_ = New(sim, ctrl, "base")
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	ctrl.SetRail(Rail, false)
	if err := sim.RunFor(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// An idle bank's self-discharge over the same 4 h is not the host's;
	// the sleeping MCU adds about 0.01 Wh.
	idle := energy.NewBattery(energy.BatteryConfig{InitialSoC: 1})
	idle.Transfer(0, 0, 4)
	up := time.Duration((idle.SoC() - bat.SoC()) * bat.CapacityWh() / PowerW * float64(time.Hour))
	if up < 119*time.Minute || up > 121*time.Minute {
		t.Fatalf("powered for %v by the battery's account, want ~2h", up)
	}
}

func TestGumstixDrawsTableIPower(t *testing.T) {
	sim := simenv.New(1)
	bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 1})
	bus := energy.NewBus(sim, bat, nil, nil)
	ctrl := mcu.New(sim, bus, "mcu")
	_ = New(sim, ctrl, "base")
	ctrl.SetRail(Rail, true)
	if err := sim.RunFor(10 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// Table I: Gumstix 900 mW → 9 Wh over 10 h on its rail; the sleeping
	// MCU adds a few mWh.
	got := (1 - bat.SoC()) * bat.CapacityWh()
	if got < 8.5 || got > 9.5 {
		t.Fatalf("gumstix rail drained %v Wh in 10 h, want ~9 (Table I)", got)
	}
}

func TestDynamicDurationEvaluatedAtStart(t *testing.T) {
	sim, ctrl, h := newRig(t)
	backlog := 10 * time.Minute
	var started, finished time.Time
	h.OnBoot(func(now time.Time) {
		started = now
		h.Enqueue(Job{Name: "drain", Work: func(time.Time) (time.Duration, func(time.Time)) {
			return backlog, func(now time.Time) { finished = now }
		}})
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
		h.Enqueue(fixedJob("first", time.Minute, func(time.Time) {
			order = append(order, "first")
			// Chain a continuation at the head: it must run before "later".
			h.EnqueueFront(fixedJob("cont", time.Minute, func(time.Time) {
				order = append(order, "cont")
			}))
		}))
		h.Enqueue(fixedJob("later", time.Minute, func(time.Time) { order = append(order, "later") }))
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
	h.EnqueueFront(fixedJob("ghost", time.Minute, func(time.Time) {
		t.Fatal("front job ran on unpowered host")
	}))
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
}
