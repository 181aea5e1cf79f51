package comms

import (
	"time"

	"repro/internal/simenv"
	"repro/internal/weather"
)

// Probe-channel constants of the deployment.
const (
	// probeRateBps is the payload rate through 70 m of ice.
	probeRateBps = 2400
	// probeOverhead is framing overhead per packet.
	probeOverhead = 0.25
	// probeSummerLossP is the loss added to WinterLossP at full melt.
	probeSummerLossP = 0.11
	// probeRTT is the command/response turnaround latency.
	probeRTT = 250 * time.Millisecond
)

// ProbeRadioConfig parameterises the base-station ↔ sub-glacial-probe
// channel. The key seasonal behaviour from §III/§V: "radio communication
// with the probes is better in the winter due to the drier ice conditions";
// in summer, water in the ice raised loss to roughly 400 missed packets in
// 3000 (≈13 %).
type ProbeRadioConfig struct {
	// WinterLossP is the per-packet loss probability in dry winter ice.
	WinterLossP float64
}

// DefaultProbeRadioConfig returns the deployment values: winter ~2.5 % loss
// rising to ~13.5 % at the height of the melt season.
func DefaultProbeRadioConfig() ProbeRadioConfig {
	return ProbeRadioConfig{WinterLossP: 0.025}
}

// ProbeChannel is the shared radio medium between a base station and its
// sub-glacial probes.
type ProbeChannel struct {
	sim *simenv.Simulator
	wx  *weather.Model
	cfg ProbeRadioConfig

	seq uint64
}

// NewProbeChannel constructs the channel; wx may be nil for a season-less
// channel at winter loss rates.
func NewProbeChannel(sim *simenv.Simulator, wx *weather.Model, cfg ProbeRadioConfig) *ProbeChannel {
	if cfg.WinterLossP == 0 {
		cfg.WinterLossP = DefaultProbeRadioConfig().WinterLossP
	}
	return &ProbeChannel{sim: sim, wx: wx, cfg: cfg}
}

// LossRate returns the per-packet loss probability at now.
func (c *ProbeChannel) LossRate(now time.Time) float64 {
	p := c.cfg.WinterLossP
	if c.wx != nil {
		p += probeSummerLossP * c.wx.MeltIndex(now)
	}
	return clamp01(p)
}

// RTT returns the command/response turnaround latency.
func (c *ProbeChannel) RTT() time.Duration { return probeRTT }

// PacketAirtime returns the wire time of a packet of n bytes.
func (c *ProbeChannel) PacketAirtime(n int) time.Duration {
	return transferTime(int64(n), probeRateBps, probeOverhead)
}

// Send transmits one packet at now and reports whether it arrived. Loss
// draws are deterministic in (seed, sequence number), whatever the size.
func (c *ProbeChannel) Send(now time.Time) bool {
	c.seq++
	return hashNoise(c.sim.Seed(), "probe-loss", c.seq) >= c.LossRate(now)
}
