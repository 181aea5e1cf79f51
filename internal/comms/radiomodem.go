package comms

import (
	"math"
	"time"

	"repro/internal/simenv"
)

// DisconnectCause is why a PPP session over the radio link came down. The
// paper's central observation is that the *reference station cannot see
// this value*: "the ability to differentiate between reasons for
// disconnects becomes vital" precisely because the line protocol does not
// carry it. Station code must therefore use PPPSession.Down() only and
// guess; tests and experiments may inspect the cause.
type DisconnectCause int

const (
	// CauseNone means the session is still up.
	CauseNone DisconnectCause = iota
	// CauseInterference is a temporary radio failure; the peer is likely to
	// retry, so the right response is to stay powered for a grace period.
	CauseInterference
	// CauseFinished is a deliberate close after a successful transfer; the
	// right response is to power the radio down immediately.
	CauseFinished
)

func (c DisconnectCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseInterference:
		return "interference"
	case CauseFinished:
		return "finished"
	default:
		return "unknown"
	}
}

// Radio-modem link constants; the rate and power are Table I's.
const (
	// radioOverhead is the PPP + serial framing overhead fraction.
	radioOverhead = 0.18
	// radioDropPerHour is the base mid-transfer drop rate per hour on air,
	// before the time-of-day interference factor.
	radioDropPerHour = 1.2
)

// RadioModemConfig parameterises the 500 mW 466 MHz long-range modem pair.
type RadioModemConfig struct {
	// Environment scales interference: the lab was bad ("very unreliable
	// with frequent drop outs"), the glacier noticeably better. 1.0 = lab.
	Environment float64
}

// DefaultRadioModemConfig returns glacier-environment values.
func DefaultRadioModemConfig() RadioModemConfig {
	return RadioModemConfig{Environment: 0.45}
}

// LabRadioModemConfig returns the lab environment where the modems were
// first tested and found wanting.
func LabRadioModemConfig() RadioModemConfig {
	return RadioModemConfig{Environment: 1.0}
}

// RadioModem is one end of the long-range point-to-point link. Unlike the
// GPRS modem it is not bound to an MCU rail here, because the two ends live
// on different stations; callers wire the rail themselves.
type RadioModem struct {
	sim   *simenv.Simulator
	name  string
	cfg   RadioModemConfig
	bytes int64
}

// NewRadioModem constructs one end of the radio link.
func NewRadioModem(sim *simenv.Simulator, name string, cfg RadioModemConfig) *RadioModem {
	if cfg.Environment == 0 {
		cfg.Environment = DefaultRadioModemConfig().Environment
	}
	return &RadioModem{sim: sim, name: name, cfg: cfg}
}

// Name returns the modem name.
func (m *RadioModem) Name() string { return m.name }

// BytesSent returns the lifetime payload volume.
func (m *RadioModem) BytesSent() int64 { return m.bytes }

// InterferenceLevel returns the local interference factor at now in [0,1].
// The lab observation — "reliability was affected by the time of day which
// implies ... local interference" — is reproduced as a diurnal cycle peaking
// in the working day, scaled by the environment factor.
func (m *RadioModem) InterferenceLevel(now time.Time) float64 {
	hod := simenv.HourOfDay(now)
	diurnal := 0.5 + 0.5*math.Sin(2*math.Pi*(hod-9)/24) // peaks mid-afternoon
	return clamp01(m.cfg.Environment * (0.25 + 0.75*diurnal))
}

// Dial brings up a PPP session to the peer. Returns ErrNoSignal if
// negotiation fails outright under the current interference.
func (m *RadioModem) Dial(now time.Time) (*PPPSession, error) {
	pFail := 0.15 + 0.55*m.InterferenceLevel(now)
	key := uint64(now.UnixNano())
	if hashNoise(m.sim.Seed(), "radio-dial-"+m.name, key) < pFail {
		return nil, ErrNoSignal
	}
	return &PPPSession{modem: m, up: true}, nil
}

// TransferTime returns wire time for n payload bytes.
func (m *RadioModem) TransferTime(n int64) time.Duration {
	return transferTime(n, RadioRateBps, radioOverhead)
}

// PPPSession is a point-to-point session over the radio link. Its Down/Up
// state is all the stations can see; the disconnect cause is deliberately
// only exposed for tests and experiment harnesses.
type PPPSession struct {
	modem *RadioModem
	up    bool
	cause DisconnectCause
}

// Up reports whether the session is alive.
func (s *PPPSession) Up() bool { return s.up }

// Close closes the session deliberately after a successful exchange.
func (s *PPPSession) Close() {
	if !s.up {
		return
	}
	s.up = false
	s.cause = CauseFinished
}

// CauseForTest exposes the hidden disconnect cause to tests/experiments.
func (s *PPPSession) CauseForTest() DisconnectCause { return s.cause }

// TryTransfer moves n payload bytes over the session, which may drop to
// interference partway (ErrDropped); the cause is recorded as
// CauseInterference but is not visible to the caller through the session's
// public state.
func (s *PPPSession) TryTransfer(now time.Time, n int64) TransferResult {
	if !s.up {
		return TransferResult{Err: &NotReadyError{Device: s.modem.name}}
	}
	m := s.modem
	full := m.TransferTime(n)
	pDrop := radioDropPerHour * full.Hours() * (0.4 + m.InterferenceLevel(now))
	if pDrop > 0.95 {
		pDrop = 0.95
	}
	key := uint64(now.UnixNano()) ^ uint64(n)
	if hashNoise(m.sim.Seed(), "radio-drop-"+m.name, key) < pDrop {
		frac := hashNoise(m.sim.Seed(), "radio-dropfrac-"+m.name, key)
		sent := int64(float64(n) * frac)
		m.bytes += sent
		s.up = false
		s.cause = CauseInterference
		return TransferResult{
			Sent:    sent,
			Elapsed: time.Duration(float64(full) * frac),
			Err:     ErrDropped,
		}
	}
	m.bytes += n
	return TransferResult{Sent: n, Elapsed: full}
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
