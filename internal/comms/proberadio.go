package comms

import (
	"time"

	"repro/internal/simenv"
	"repro/internal/weather"
)

// Probe-channel constants of the deployment. The key seasonal behaviour
// from §III/§V: "radio communication with the probes is better in the
// winter due to the drier ice conditions"; in summer, water in the ice
// raised loss to roughly 400 missed packets in 3000 (≈13 %).
const (
	// probeRateBps is the payload rate through 70 m of ice.
	probeRateBps = 2400
	// probeOverhead is framing overhead per packet.
	probeOverhead = 0.25
	// probeWinterLossP is the per-packet loss probability in dry winter
	// ice, ~2.5 %.
	probeWinterLossP float64 = 0.025
	// probeSummerLossP is the loss added to probeWinterLossP at full
	// melt, for ~13.5 % at the height of the melt season.
	probeSummerLossP = 0.11
	// probeRTT is the command/response turnaround latency.
	probeRTT = 250 * time.Millisecond
)

// ProbeChannel is the shared radio medium between a base station and its
// sub-glacial probes.
type ProbeChannel struct {
	sim *simenv.Simulator
	wx  *weather.Model

	seq uint64
}

// NewProbeChannel constructs the channel; wx may be nil for a season-less
// channel at winter loss rates.
func NewProbeChannel(sim *simenv.Simulator, wx *weather.Model) *ProbeChannel {
	return &ProbeChannel{sim: sim, wx: wx}
}

// LossRate returns the per-packet loss probability at now.
func (c *ProbeChannel) LossRate(now time.Time) float64 {
	p := probeWinterLossP
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
