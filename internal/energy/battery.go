// Package energy models the power subsystem of a Glacsweb station: a
// lead-acid battery bank, solar and wind chargers, and a power bus that
// integrates the draw of every switched load over simulated time.
//
// The terminal-voltage model is what makes the paper's power management
// observable: the MSP430 samples battery voltage every 30 minutes, the daily
// average selects a power state (Table II), and the paper's Fig 5 shows the
// resulting diurnal voltage curve with 2-hourly dips from the dGPS task.
package energy

import (
	"fmt"
	"math"
)

// NominalVolts is the nominal bus voltage of the deployment's battery banks.
const NominalVolts = 12.0

// internalOhms is the bank's effective internal resistance driving charge
// rise and discharge sag of the terminal voltage.
const internalOhms = 0.40

// The deployment's lead-acid bank: the paper reasons about a 36 Ah
// reserve.
const (
	// capacityAh is the bank capacity in amp-hours.
	capacityAh float64 = 36
	// chargeEfficiency is the coulombic efficiency of charging, in (0,1].
	chargeEfficiency float64 = 0.85
	// selfDischargePerDay is the fraction of capacity lost per day at rest.
	selfDischargePerDay float64 = 0.0005
)

// BatteryConfig parameterises a lead-acid battery bank.
type BatteryConfig struct {
	// InitialSoC is the starting state of charge in [0,1].
	InitialSoC float64
}

// DefaultBatteryConfig returns the deployed bank's starting charge.
func DefaultBatteryConfig() BatteryConfig {
	return BatteryConfig{InitialSoC: 0.9}
}

// Battery is a lead-acid battery bank with amp-hour book-keeping and a
// terminal-voltage model. It is not safe for concurrent use; in the
// simulation it is only touched from the event loop.
type Battery struct {
	soc float64 // state of charge in [0,1]
}

// NewBattery constructs a battery bank.
func NewBattery(cfg BatteryConfig) *Battery {
	if cfg.InitialSoC < 0 || cfg.InitialSoC > 1 {
		panic(fmt.Sprintf("energy: InitialSoC %v out of [0,1]", cfg.InitialSoC))
	}
	return &Battery{soc: cfg.InitialSoC}
}

// SoC returns the state of charge in [0,1].
func (b *Battery) SoC() float64 { return b.soc }

// CapacityWh returns the bank's capacity in watt-hours at nominal voltage.
func (b *Battery) CapacityWh() float64 { return capacityAh * NominalVolts }

// Depleted reports whether the bank is fully exhausted.
func (b *Battery) Depleted() bool { return b.soc <= 0 }

// RestVoltage returns the open-circuit voltage at the current state of
// charge: ~11.8 V empty to ~12.85 V full, the standard lead-acid curve.
func (b *Battery) RestVoltage() float64 {
	return restVoltage(b.soc)
}

func restVoltage(soc float64) float64 {
	soc = clamp(soc, 0, 1)
	// Slightly convex: voltage falls faster near empty.
	return 11.80 + 1.05*soc - 0.35*(1-soc)*(1-soc)
}

// TerminalVoltage returns the terminal voltage under the given net current:
// loadW drawn by loads and chargeW injected by chargers, both in watts.
// Charging raises the terminal voltage (up to absorption ~14.5 V), while
// discharge sags it below rest — this asymmetry is what Fig 5 shows.
func (b *Battery) TerminalVoltage(loadW, chargeW float64) float64 {
	v := b.RestVoltage()
	netW := chargeW - loadW
	amps := netW / NominalVolts
	v += amps * internalOhms
	return clamp(v, 9.0, 14.6)
}

// Transfer applies hours of simultaneous load and charge, updating the state
// of charge with coulombic efficiency and self-discharge. Energy that would
// overfill the bank is shed; energy demanded beyond empty is truncated (the
// bus detects the brown-out separately). It returns the energy actually
// delivered to loads in Wh.
func (b *Battery) Transfer(loadW, chargeW, hours float64) float64 {
	if hours < 0 {
		panic(fmt.Sprintf("energy: negative transfer duration %v h", hours))
	}
	if hours == 0 {
		return 0
	}
	capWh := b.CapacityWh()

	inWh := chargeW * hours * chargeEfficiency
	outWh := loadW * hours
	selfWh := capWh * selfDischargePerDay * hours / 24

	stored := b.soc * capWh
	avail := stored + inWh - selfWh
	delivered := math.Min(outWh, math.Max(0, avail))
	stored = avail - delivered
	if stored > capWh {
		stored = capWh
	}
	if stored < 0 {
		stored = 0
	}
	b.soc = stored / capWh
	return delivered
}

// SetSoC forcibly sets the state of charge; used by failure-injection tests
// and the depletion/recovery experiments.
func (b *Battery) SetSoC(soc float64) {
	b.soc = clamp(soc, 0, 1)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
