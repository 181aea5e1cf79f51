package energy

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simenv"
	"repro/internal/weather"
)

func TestRestVoltageMonotoneInSoC(t *testing.T) {
	prev := -1.0
	for soc := 0.0; soc <= 1.0; soc += 0.05 {
		v := restVoltage(soc)
		if v <= prev {
			t.Fatalf("rest voltage not monotone at soc=%v: %v <= %v", soc, v, prev)
		}
		prev = v
	}
}

func TestRestVoltageRange(t *testing.T) {
	if v := restVoltage(0); v < 11.0 || v > 11.8 {
		t.Fatalf("empty rest voltage %v out of lead-acid range", v)
	}
	if v := restVoltage(1); v < 12.6 || v > 13.0 {
		t.Fatalf("full rest voltage %v out of lead-acid range", v)
	}
}

func TestTerminalVoltageChargingRaisesDischargingSags(t *testing.T) {
	b := NewBattery(BatteryConfig{InitialSoC: 0.7})
	rest := b.TerminalVoltage(0, 0)
	charging := b.TerminalVoltage(0, 50)
	sagging := b.TerminalVoltage(10, 0)
	if !(charging > rest && rest > sagging) {
		t.Fatalf("voltage ordering wrong: charge=%v rest=%v sag=%v", charging, rest, sagging)
	}
}

func TestTerminalVoltageClamped(t *testing.T) {
	b := NewBattery(BatteryConfig{InitialSoC: 1})
	if v := b.TerminalVoltage(0, 10000); v > 14.6 {
		t.Fatalf("terminal voltage %v above absorption clamp", v)
	}
	if v := b.TerminalVoltage(10000, 0); v < 9.0 {
		t.Fatalf("terminal voltage %v below collapse clamp", v)
	}
}

func TestTransferConservesEnergy(t *testing.T) {
	b := NewBattery(BatteryConfig{InitialSoC: 1})
	before := b.SoC() * b.CapacityWh()
	delivered := b.Transfer(10, 0, 2) // 10 W for 2 h
	after := b.SoC() * b.CapacityWh()
	if math.Abs(delivered-20) > 1e-9 {
		t.Fatalf("delivered %v Wh, want 20", delivered)
	}
	want := 20 + b.CapacityWh()*selfDischargePerDay*2/24 // plus 2 h of self-discharge
	if math.Abs((before-after)-want) > 1e-9 {
		t.Fatalf("stored energy dropped by %v Wh, want %v", before-after, want)
	}
}

func TestTransferTruncatesAtEmpty(t *testing.T) {
	b := NewBattery(BatteryConfig{InitialSoC: 0.5}) // 216 Wh stored
	delivered := b.Transfer(500, 0, 1)              // asks for 500 Wh
	if delivered > 216.01 {
		t.Fatalf("delivered %v Wh from a 216 Wh store", delivered)
	}
	if !b.Depleted() {
		t.Fatal("battery should be depleted")
	}
}

func TestTransferShedsWhenFull(t *testing.T) {
	b := NewBattery(BatteryConfig{InitialSoC: 1})
	b.Transfer(0, 100, 1)
	if b.SoC() != 1 {
		t.Fatalf("SoC %v after overcharging a full bank, want exactly 1", b.SoC())
	}
}

func TestChargeEfficiencyApplied(t *testing.T) {
	b := NewBattery(BatteryConfig{InitialSoC: 0.1})
	before := b.SoC() * b.CapacityWh()
	b.Transfer(0, 10, 1) // 10 Wh in at 85% efficiency, less an hour of self-discharge
	gained := b.SoC()*b.CapacityWh() - before
	if want := 10*chargeEfficiency - b.CapacityWh()*selfDischargePerDay/24; math.Abs(gained-want) > 1e-9 {
		t.Fatalf("gained %v Wh from 10 Wh at %v efficiency, want %v", gained, chargeEfficiency, want)
	}
}

// The paper: a 3.6 W dGPS left on continuously depletes 36 Ah in ~5 days.
func TestPaperContinuousGPSDepletesIn5Days(t *testing.T) {
	b := NewBattery(BatteryConfig{InitialSoC: 1})
	hours := 0.0
	for !b.Depleted() {
		b.Transfer(3.6, 0, 1)
		hours++
		if hours > 24*10 {
			t.Fatal("battery not depleted after 10 days")
		}
	}
	days := hours / 24
	if days < 4.5 || days > 5.5 {
		t.Fatalf("continuous 3.6 W depleted 36 Ah in %.1f days, paper says ~5", days)
	}
}

// The paper: in state 3 (12 dGPS readings/day ≈ 1 h/day on-time) the same
// bank lasts ~117 days.
func TestPaperState3GPSDepletesInAbout117Days(t *testing.T) {
	b := NewBattery(BatteryConfig{InitialSoC: 1})
	days := 0.0
	for !b.Depleted() {
		b.Transfer(3.6, 0, 1.0) // 12 × 5-minute readings = 1 h/day
		days++
		if days > 200 {
			t.Fatal("battery not depleted after 200 days")
		}
	}
	if days < 105 || days > 130 {
		t.Fatalf("state-3 duty cycle depleted 36 Ah in %.0f days, paper says ~117", days)
	}
}

func TestSolarPanelCurve(t *testing.T) {
	p := NewSolarPanel(10)
	at := func(irradiance float64) float64 {
		return p.OutputW(weather.Conditions{SolarIrradiance: irradiance})
	}
	if got := at(0); got != 0 {
		t.Fatalf("dark output %v, want 0", got)
	}
	full := at(1000)
	if full < 7 || full > 10 {
		t.Fatalf("full-sun output %v for 10 W panel with derating", full)
	}
	if half := at(500); math.Abs(half-full/2) > 1e-9 {
		t.Fatalf("panel not linear: half-sun %v vs full %v", half, full)
	}
}

func TestWindTurbineCurve(t *testing.T) {
	w := NewWindTurbine(50)
	cases := []struct {
		wind float64
		want func(p float64) bool
		desc string
	}{
		{1, func(p float64) bool { return p == 0 }, "below cut-in"},
		{12, func(p float64) bool { return p == 50 }, "at rated"},
		{20, func(p float64) bool { return p == 50 }, "above rated"},
		{30, func(p float64) bool { return p == 0 }, "above cut-out"},
		{7, func(p float64) bool { return p > 0 && p < 50 }, "partial"},
	}
	for _, c := range cases {
		if p := w.OutputW(weather.Conditions{WindSpeed: c.wind}); !c.want(p) {
			t.Fatalf("%s: power %v at %v m/s", c.desc, p, c.wind)
		}
	}
}

func TestWindTurbineStoppedBySnow(t *testing.T) {
	w := NewWindTurbine(50)
	free := w.OutputW(weather.Conditions{WindSpeed: 12, SnowDepthM: 0})
	buried := w.OutputW(weather.Conditions{WindSpeed: 12, SnowDepthM: 2.5})
	if free != 50 {
		t.Fatalf("unburied rated output %v, want 50", free)
	}
	if buried != 0 {
		t.Fatalf("buried output %v, want 0", buried)
	}
}

func TestMainsChargerSeasonal(t *testing.T) {
	m := NewMainsCharger(60)
	m.SetDayOfYear(150) // late May: café open
	if got := m.OutputW(weather.Conditions{}); got != 60 {
		t.Fatalf("in-season output %v, want 60", got)
	}
	m.SetDayOfYear(20) // January: café closed
	if got := m.OutputW(weather.Conditions{}); got != 0 {
		t.Fatalf("winter output %v, want 0", got)
	}
}

// constSampler feeds fixed conditions to a bus.
type constSampler struct{ c weather.Conditions }

func (s constSampler) Sample(time.Time) weather.Conditions { return s.c }

func newTestBus(t *testing.T, soc float64, chargers []Charger, cond weather.Conditions) (*simenv.Simulator, *Bus) {
	t.Helper()
	sim := simenv.New(1)
	bat := NewBattery(BatteryConfig{InitialSoC: soc})
	bus := NewBus(sim, bat, chargers, constSampler{cond})
	return sim, bus
}

// drainedWh is the energy a bus's loads took from its battery since
// idle's twin bus, built alike with no load, was at the same state of
// charge: the twin's drop is the self-discharge, which cancels.
func drainedWh(bus, idle *Bus) float64 {
	return (idle.battery.SoC() - bus.battery.SoC()) * bus.battery.CapacityWh()
}

func TestBusIntegratesLoad(t *testing.T) {
	sim, bus := newTestBus(t, 1, nil, weather.Conditions{})
	idle := NewBus(sim, NewBattery(BatteryConfig{InitialSoC: 1}), nil, constSampler{})
	bus.SetLoad("gumstix", 0.9)
	if err := sim.RunFor(10 * time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := drainedWh(bus, idle); math.Abs(got-9) > 0.2 {
		t.Fatalf("gumstix drained %v Wh over 10 h at 0.9 W, want ~9", got)
	}
}

func TestBusRemoveLoadStopsConsumption(t *testing.T) {
	sim, bus := newTestBus(t, 1, nil, weather.Conditions{})
	idle := NewBus(sim, NewBattery(BatteryConfig{InitialSoC: 1}), nil, constSampler{})
	bus.SetLoad("x", 5)
	if err := sim.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	bus.SetLoad("x", 0)
	mid := drainedWh(bus, idle)
	if math.Abs(mid-5) > 0.1 {
		t.Fatalf("5 W for 1 h drained %v Wh, want ~5", mid)
	}
	if err := sim.RunFor(5 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := drainedWh(bus, idle); math.Abs(got-mid) > 1e-9 {
		t.Fatalf("load drained %v Wh after removal (was %v)", got, mid)
	}
}

func TestBusPowerFailFiresOnceAndClearsLoads(t *testing.T) {
	sim, bus := newTestBus(t, 0.05, nil, weather.Conditions{})
	fails := 0
	bus.OnPowerFail(func(time.Time) { fails++ })
	bus.SetLoad("heater", 100)
	if err := sim.RunFor(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if fails != 1 {
		t.Fatalf("power fail fired %d times, want 1", fails)
	}
	if !bus.failed {
		t.Fatal("bus should be failed")
	}
	if bus.TotalLoadW() != 0 {
		t.Fatalf("loads not cleared on failure: %v W", bus.TotalLoadW())
	}
}

func TestBusRecoversWithCharging(t *testing.T) {
	sun := weather.Conditions{SolarIrradiance: 800}
	sim, bus := newTestBus(t, 0.02, []Charger{NewSolarPanel(50)}, sun)
	restored := false
	bus.OnPowerFail(func(time.Time) {})
	bus.OnPowerRestore(func(time.Time) { restored = true })
	bus.SetLoad("drain", 200)
	if err := sim.RunFor(14 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if bus.FailCount() == 0 {
		t.Fatal("expected a power failure")
	}
	if !restored {
		t.Fatal("bus did not recover despite 32 W of charging")
	}
	if bus.failed {
		t.Fatal("bus still failed after recovery")
	}
}

func TestBusSetLoadWhileFailedIgnored(t *testing.T) {
	sim, bus := newTestBus(t, 0.01, nil, weather.Conditions{})
	bus.SetLoad("drain", 500)
	if err := sim.RunFor(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if !bus.failed {
		t.Fatal("precondition: bus failed")
	}
	bus.SetLoad("radio", 2)
	if bus.TotalLoadW() != 0 {
		t.Fatal("load accepted while bus failed")
	}
}

func TestBusVoltageDipsUnderLoad(t *testing.T) {
	sim, bus := newTestBus(t, 0.9, nil, weather.Conditions{})
	idle := bus.VoltageNow()
	bus.SetLoad("dgps", 3.6)
	_ = sim // voltage reads do not need time to pass
	loaded := bus.VoltageNow()
	if loaded >= idle {
		t.Fatalf("voltage %v under 3.6 W load not below idle %v", loaded, idle)
	}
}

// Property: SoC stays within [0,1] under arbitrary transfer sequences.
func TestPropertySoCBounded(t *testing.T) {
	f := func(ops []struct {
		Load, Charge uint8
		Minutes      uint8
	}) bool {
		b := NewBattery(BatteryConfig{InitialSoC: 0.5})
		for _, op := range ops {
			b.Transfer(float64(op.Load), float64(op.Charge), float64(op.Minutes)/60)
			if b.SoC() < 0 || b.SoC() > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: delivered energy never exceeds requested energy.
func TestPropertyDeliveredLERequested(t *testing.T) {
	f := func(loadRaw, socRaw uint16, minutes uint8) bool {
		load := float64(loadRaw%1000) / 10
		soc := float64(socRaw%1001) / 1000
		h := float64(minutes) / 60
		b := NewBattery(BatteryConfig{InitialSoC: soc})
		delivered := b.Transfer(load, 0, h)
		return delivered <= load*h+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
