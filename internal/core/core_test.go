package core

import (
	"testing"
	"time"

	"repro/internal/comms"
	"repro/internal/hw/dgps"
	"repro/internal/hw/gumstix"
	"repro/internal/simenv"
	"repro/internal/weather"
)

func TestNewNodeWiresEverything(t *testing.T) {
	sim := simenv.New(1)
	wx := weather.New(1)
	n := NewNode(sim, wx, BaseStationConfig("base"))
	if n.Battery == nil || n.Bus == nil || n.MCU == nil || n.Host == nil || n.GPS == nil || n.Modem == nil {
		t.Fatalf("node incompletely wired: %+v", n)
	}
	if !n.MCU.Alive() {
		t.Fatal("MCU not alive after construction")
	}
}

func TestNodeRailsControlPeripherals(t *testing.T) {
	sim := simenv.New(1)
	n := NewNode(sim, nil, BaseStationConfig("base"))
	n.MCU.SetRail(gumstix.Rail, true)
	if err := sim.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !n.Host.Powered() {
		t.Fatal("gumstix rail did not power the host")
	}
	// A powered dGPS unit records back to back; a powered modem attaches.
	files := n.GPS.FileCount()
	n.MCU.SetRail(dgps.Rail, true)
	if err := sim.RunFor(dgps.ReadingDuration + time.Minute); err != nil {
		t.Fatal(err)
	}
	if n.GPS.FileCount() == files {
		t.Fatal("gps rail did not power the unit: no reading recorded")
	}
	n.MCU.SetRail(comms.GPRSRail, true)
	if err := n.Modem.Attach(sim.Now()); err != nil {
		t.Fatalf("gprs rail did not power the modem: %v", err)
	}
}

// newDrainNode builds a base node without weather, so nothing charges
// it: every Wh its state of charge loses from the returned start went to
// a load or to the bank's self-discharge (about 0.2 Wh a day).
func newDrainNode(sim *simenv.Simulator) (*Node, float64) {
	n := NewNode(sim, nil, BaseStationConfig("base"))
	return n, n.Battery.SoC()
}

func TestNodeSleepDrawIsTiny(t *testing.T) {
	// The whole point of the platform: everything off, the node draws
	// almost nothing.
	sim := simenv.New(1)
	n, soc0 := newDrainNode(sim)
	if err := sim.RunFor(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	drawn := (soc0 - n.Battery.SoC()) * n.Battery.CapacityWh()
	if drawn > 0.5 { // 3 mW × 24 h ≈ 0.07 Wh
		t.Fatalf("sleeping node drew %v Wh in a day", drawn)
	}
}

func TestNodePoweredDayDrawsTableIPower(t *testing.T) {
	sim := simenv.New(1)
	n, soc0 := newDrainNode(sim)
	n.MCU.SetRail(gumstix.Rail, true)
	if err := sim.RunFor(10 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// The sleeping MCU adds about 0.03 Wh to the gumstix's draw.
	got := (soc0 - n.Battery.SoC()) * n.Battery.CapacityWh()
	if got < 8.5 || got > 9.5 { // 0.9 W × 10 h
		t.Fatalf("gumstix drew %v Wh in 10 h, want ~9 (Table I 900 mW)", got)
	}
}

func TestReferenceConfigHasMains(t *testing.T) {
	cfg := ReferenceStationConfig("ref")
	foundMains := false
	for _, c := range cfg.Chargers {
		if c.Name() == "mains" {
			foundMains = true
		}
	}
	if !foundMains {
		t.Fatal("reference station lacks the café mains charger")
	}
	cfgB := BaseStationConfig("base")
	for _, c := range cfgB.Chargers {
		if c.Name() == "mains" {
			t.Fatal("base station has a mains charger on a glacier")
		}
	}
}

func TestSnapshotPlausible(t *testing.T) {
	sim := simenv.New(1)
	wx := weather.New(1)
	n := NewNode(sim, wx, BaseStationConfig("base"))
	if err := sim.RunFor(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	s := n.Snapshot()
	if s.SoC <= 0 || s.SoC > 1 {
		t.Fatalf("SoC %v", s.SoC)
	}
	if s.Volts < 11 || s.Volts > 15 {
		t.Fatalf("Volts %v", s.Volts)
	}
}

func TestNodeNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty node name")
		}
	}()
	NewNode(simenv.New(1), nil, NodeConfig{})
}
