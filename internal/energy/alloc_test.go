package energy

import (
	"testing"
	"time"

	"repro/internal/simenv"
	"repro/internal/weather"
)

// These tests pin the power bus's steady-state allocation discipline: the
// 5-minute integration tick — advance through charge sampling, battery
// transfer and ledger attribution — must not touch the heap once the
// ledger keys exist. The tick runs every 5 simulated minutes per station,
// so at fleet scale an allocation here dwarfs everything else.
//
// advance and chargeAt carry //glacvet:hotpath in bus.go: `make lint`
// rejects the allocation patterns statically, these pins catch whatever
// slips past the lint at runtime. Keep the two sets in sync.

func newAllocBus(sim *simenv.Simulator) *Bus {
	bat := NewBattery(BatteryConfig{InitialSoC: 0.8})
	chargers := []Charger{NewSolarPanel(40), NewWindTurbine(60)}
	w := weather.New(sim.Seed())
	return NewBus(sim, bat, chargers, w)
}

func TestBusAdvanceAllocFree(t *testing.T) {
	sim := simenv.New(1)
	b := newAllocBus(sim)
	b.SetLoad("mcu", 0.06)
	b.SetLoad("gps", 0.9)
	// Warm up: establish ledger keys and the weather model's day cache.
	now := sim.Now()
	for i := 0; i < 12; i++ {
		now = now.Add(5 * time.Minute)
		b.advance(now)
	}
	avg := testing.AllocsPerRun(500, func() {
		now = now.Add(5 * time.Minute)
		b.advance(now)
	})
	if avg != 0 {
		t.Fatalf("steady-state advance allocates %.1f objects/op, want 0", avg)
	}
}

func TestBusVoltageNowAllocFree(t *testing.T) {
	sim := simenv.New(1)
	b := newAllocBus(sim)
	b.SetLoad("mcu", 0.06)
	b.VoltageNow()
	avg := testing.AllocsPerRun(500, func() {
		_ = b.VoltageNow()
	})
	if avg != 0 {
		t.Fatalf("VoltageNow allocates %.1f objects/op, want 0", avg)
	}
}

// BenchmarkBusAdvance measures one integration tick: weather sample,
// charger fold, battery transfer, pro-rata ledger attribution. This is
// the bus-side half of the per-tick kernel (the weather-side half is
// BenchmarkWeatherSample in internal/weather).
func BenchmarkBusAdvance(b *testing.B) {
	sim := simenv.New(1)
	bus := newAllocBus(sim)
	bus.SetLoad("mcu", 0.06)
	bus.SetLoad("gps", 0.9)
	now := sim.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(5 * time.Minute)
		bus.advance(now)
	}
}

// BenchmarkBusVoltageNow measures the MSP430 ADC read path: an advance to
// the (unchanged) current instant plus the terminal-voltage model, with
// the charge wattage reused from the memo rather than re-derived.
func BenchmarkBusVoltageNow(b *testing.B) {
	sim := simenv.New(1)
	bus := newAllocBus(sim)
	bus.SetLoad("mcu", 0.06)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bus.VoltageNow()
	}
}
