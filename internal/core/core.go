// Package core assembles a Gumsense node: the dual-processor platform the
// paper contributes, combining "an ARM-based Linux system with an MSP430
// for sensing and power-control".
//
// A Node wires together one battery bank and its chargers, the power bus,
// the MSP430 controller, the Gumstix host, a dGPS unit and a GPRS modem —
// everything a Glacsweb station is built from. The station runtime in
// internal/station drives a Node through the paper's daily schedule; the
// examples and benchmarks construct Nodes directly for focused scenarios.
package core

import (
	"repro/internal/comms"
	"repro/internal/energy"
	"repro/internal/hw/dgps"
	"repro/internal/hw/gumstix"
	"repro/internal/hw/mcu"
	"repro/internal/simenv"
	"repro/internal/weather"
)

// NodeConfig parameterises a Gumsense node.
type NodeConfig struct {
	// Name prefixes everything the node registers on the simulator.
	Name string
	// Battery configures the bank; zero value gets the 36 Ah default.
	Battery energy.BatteryConfig
	// Chargers are the external power inputs (solar, wind, mains).
	Chargers []energy.Charger
}

// BaseStationConfig returns the base-station hardware fit: 10 W solar,
// 50 W wind, 36 Ah bank.
func BaseStationConfig(name string) NodeConfig {
	return NodeConfig{
		Name:     name,
		Battery:  energy.DefaultBatteryConfig(),
		Chargers: []energy.Charger{energy.NewSolarPanel(10), energy.NewWindTurbine(50)},
	}
}

// ReferenceStationConfig returns the reference-station fit: solar panel
// plus the café mains charger that is only live April–September.
func ReferenceStationConfig(name string) NodeConfig {
	return NodeConfig{
		Name:     name,
		Battery:  energy.DefaultBatteryConfig(),
		Chargers: []energy.Charger{energy.NewSolarPanel(20), energy.NewMainsCharger(60)},
	}
}

// Node is one assembled Gumsense platform.
type Node struct {
	// Name identifies the node.
	Name string
	// Battery is the bank.
	Battery *energy.Battery
	// Bus is the power bus.
	Bus *energy.Bus
	// MCU is the MSP430.
	MCU *mcu.MCU
	// Host is the Gumstix.
	Host *gumstix.Host
	// GPS is the dGPS unit.
	GPS *dgps.Unit
	// Modem is the GPRS modem.
	Modem *comms.GPRS
}

// NewNode builds and wires a node on the simulator.
func NewNode(sim *simenv.Simulator, wx *weather.Model, cfg NodeConfig) *Node {
	if cfg.Name == "" {
		panic("core: node needs a name")
	}
	var sampler energy.Sampler
	if wx != nil {
		sampler = wx
	}
	bat := energy.NewBattery(cfg.Battery)
	bus := energy.NewBus(sim, bat, cfg.Chargers, sampler)
	ctrl := mcu.New(sim, bus, cfg.Name+".mcu")
	host := gumstix.New(sim, ctrl, cfg.Name+".gumstix")
	gps := dgps.New(sim, ctrl, wx, cfg.Name+".gps")
	modem := comms.NewGPRS(sim, ctrl, wx, cfg.Name+".gprs")
	return &Node{
		Name:    cfg.Name,
		Battery: bat,
		Bus:     bus,
		MCU:     ctrl,
		Host:    host,
		GPS:     gps,
		Modem:   modem,
	}
}

// Snapshot captures the node's electrical state for traces.
type Snapshot struct {
	// SoC is the battery state of charge.
	SoC float64
	// Volts is the terminal voltage under present load.
	Volts float64
}

// Snapshot returns the current electrical state.
func (n *Node) Snapshot() Snapshot {
	return Snapshot{
		SoC:   n.Battery.SoC(),
		Volts: n.Bus.VoltageNow(),
	}
}
