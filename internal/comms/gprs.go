package comms

import (
	"time"

	"repro/internal/hw/mcu"
	"repro/internal/simenv"
	"repro/internal/weather"
)

// GPRSRail is the MCU power-rail name conventionally used for GPRS modems.
const GPRSRail = "gprs"

// GPRS modem and cell-environment constants of the Iceland deployment.
const (
	// gprsAttachTime is the time to register on the network and bring up
	// the session before payload can flow.
	gprsAttachTime = 45 * time.Second
	// gprsBaseOutageP is the chance a given day's window has no usable
	// signal.
	gprsBaseOutageP = 0.06
	// gprsWetOutageP is added at full melt (summer is the weak season:
	// "communications fail ... frequently, especially in the wetter
	// summer").
	gprsWetOutageP = 0.14
	// gprsDropPerHour is the chance per hour of connection of a
	// mid-transfer drop.
	gprsDropPerHour = 0.35
)

// GPRS is a simulated GPRS modem switched by the station MCU.
type GPRS struct {
	sim  *simenv.Simulator
	wx   *weather.Model
	name string

	powered  bool
	attached bool
}

// NewGPRS constructs a modem bound to the MCU's gprs rail (defining it).
// wx may be nil for an ideal cell environment.
func NewGPRS(sim *simenv.Simulator, ctrl *mcu.MCU, wx *weather.Model, name string) *GPRS {
	g := &GPRS{sim: sim, wx: wx, name: name}
	ctrl.DefineRail(GPRSRail, GPRSPowerW)
	ctrl.OnRail(GPRSRail, func(on bool, _ time.Time) {
		g.powered = on
		if !on {
			g.attached = false
		}
	})
	return g
}

// Attached reports whether a data session is up.
func (g *GPRS) Attached() bool { return g.attached }

// AttachTime returns the network attach latency.
func (g *GPRS) AttachTime() time.Duration { return gprsAttachTime }

// SignalAvailable reports whether the cell network is usable at now. The
// outage pattern is deterministic per (seed, day): a bad day is bad for
// every attempt, which is how the real failures behaved (a wet antenna is
// wet all day).
func (g *GPRS) SignalAvailable(now time.Time) bool {
	day := uint64(now.Unix() / 86400)
	p := gprsBaseOutageP
	if g.wx != nil {
		p += gprsWetOutageP * g.wx.MeltIndex(now)
	}
	return hashNoise(g.sim.Seed(), "gprs-outage-"+g.name, day) >= p
}

// Attach attempts to bring up the data session. The modem must be powered.
// Returns ErrNoSignal on an outage day.
func (g *GPRS) Attach(now time.Time) error {
	if !g.powered {
		return errUnpowered(g.name)
	}
	if !g.SignalAvailable(now) {
		return ErrNoSignal
	}
	g.attached = true
	return nil
}

// Detach tears the session down (the radio can then be switched off).
func (g *GPRS) Detach() { g.attached = false }

// TransferTime returns the wire time for n payload bytes.
func (g *GPRS) TransferTime(n int64) time.Duration {
	return transferTime(n, GPRSRateBps, GPRSOverhead)
}

// TryTransfer attempts to move n payload bytes over the attached session.
// On a mid-transfer drop, Elapsed reflects the partial progress and the
// session is detached.
func (g *GPRS) TryTransfer(now time.Time, n int64) TransferResult {
	if !g.powered || !g.attached {
		return TransferResult{err: errUnpowered(g.name)}
	}
	full := g.TransferTime(n)
	// Drop probability grows with time on air.
	pDrop := gprsDropPerHour * full.Hours()
	if pDrop > 0.90 {
		pDrop = 0.90
	}
	key := uint64(now.UnixNano()) ^ uint64(n)
	if hashNoise(g.sim.Seed(), "gprs-drop-"+g.name, key) < pDrop {
		// Dropped partway: uniform fraction of progress.
		frac := hashNoise(g.sim.Seed(), "gprs-dropfrac-"+g.name, key)
		g.attached = false
		return TransferResult{
			Elapsed: time.Duration(float64(full) * frac),
			err:     ErrDropped,
		}
	}
	return TransferResult{Elapsed: full}
}

func errUnpowered(name string) error {
	return &NotReadyError{device: name}
}

// NotReadyError reports an operation on an unpowered or unattached device.
type NotReadyError struct {
	device string
}

func (e *NotReadyError) Error() string {
	return "comms: " + e.device + " not powered/attached"
}
