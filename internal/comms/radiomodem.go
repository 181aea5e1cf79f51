package comms

import (
	"math"
	"time"

	"repro/internal/simenv"
)

// Radio-modem link constants; the rate and power are Table I's.
const (
	// radioOverhead is the PPP + serial framing overhead fraction.
	radioOverhead = 0.18
	// radioEnvironment scales interference on the glacier, where it was
	// noticeably lower than in the lab ("very unreliable with frequent
	// drop outs"), which would be 1.0.
	radioEnvironment = 0.45
)

// RadioModem is one end of the 500 mW 466 MHz long-range point-to-point
// link. Unlike the GPRS modem it is not bound to an MCU rail here, because
// the two ends live on different stations; callers wire the rail
// themselves.
type RadioModem struct {
	sim  *simenv.Simulator
	name string
}

// NewRadioModem constructs one end of the radio link.
func NewRadioModem(sim *simenv.Simulator, name string) *RadioModem {
	return &RadioModem{sim: sim, name: name}
}

// InterferenceLevel returns the local interference factor at now in [0,1].
// The lab observation — "reliability was affected by the time of day which
// implies ... local interference" — is reproduced as a diurnal cycle peaking
// in the working day, scaled by the environment factor.
func (m *RadioModem) InterferenceLevel(now time.Time) float64 {
	hod := simenv.HourOfDay(now)
	diurnal := 0.5 + 0.5*math.Sin(2*math.Pi*(hod-9)/24) // peaks mid-afternoon
	return clamp01(radioEnvironment * (0.25 + 0.75*diurnal))
}

// Dial negotiates a PPP session with the peer. It returns ErrNoSignal if
// negotiation fails outright under the current interference.
func (m *RadioModem) Dial(now time.Time) error {
	pFail := 0.15 + 0.55*m.InterferenceLevel(now)
	key := uint64(now.UnixNano())
	if hashNoise(m.sim.Seed(), "radio-dial-"+m.name, key) < pFail {
		return ErrNoSignal
	}
	return nil
}

// TransferTime returns wire time for n payload bytes.
func (m *RadioModem) TransferTime(n int64) time.Duration {
	return transferTime(n, RadioRateBps, radioOverhead)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
