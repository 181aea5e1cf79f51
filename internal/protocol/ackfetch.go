package protocol

import (
	"time"

	"repro/internal/comms"
	"repro/internal/probe"
)

// ackBytes is the size of a per-reading acknowledgement packet.
const ackBytes = 8

// ackMaxRetries bounds the stop-and-wait baseline's retransmissions per
// reading.
const ackMaxRetries = 10

// AckFetcher is the conventional per-packet-acknowledged protocol the paper
// replaced: each reading is sent, then acknowledged, and retransmitted on
// timeout. It pays one round trip and one ACK packet per reading even on a
// clean channel, which is exactly the overhead the ack-less design removes.
type AckFetcher struct{}

// NewAckFetcher constructs the baseline fetcher.
func NewAckFetcher() *AckFetcher { return &AckFetcher{} }

// Fetch runs one stop-and-wait session against pr over ch with a time
// budget. st carries the received-set across sessions and may be nil.
//
//glacvet:hotpath
func (f *AckFetcher) Fetch(now time.Time, ch *comms.ProbeChannel, pr *probe.Probe,
	budget time.Duration, st *State) Result {
	if st == nil {
		st = NewState()
	}
	clock := newBudget(now, budget)

	pending := pr.PendingView()
	res := st.begin(pending)
	wanted := st.wanted
	if len(wanted) == 0 {
		markComplete(ch, &clock, pr, pending, st, &res)
		return res
	}
	if !clock.spend(ch.PacketAirtime(requestBytes)+ch.RTT(), &res) {
		return res
	}
	res.AirBytes += requestBytes

	for _, r := range wanted {
		delivered := false
		for attempt := 0; attempt < ackMaxRetries; attempt++ {
			// Data packet one way...
			if !clock.spend(ch.PacketAirtime(probe.ReadingBytes), &res) {
				return res
			}
			res.AirBytes += probe.ReadingBytes
			dataOK := ch.Send(clock.now)
			// ...then the ACK (or a timeout if the data was lost).
			if dataOK {
				if !clock.spend(ch.PacketAirtime(ackBytes)+ch.RTT(), &res) {
					return res
				}
				res.AirBytes += ackBytes
				if ch.Send(clock.now) {
					delivered = true
					break
				}
				// ACK lost: sender retransmits (receiver dedupes).
				res.Nacked++
				continue
			}
			// Data lost: timeout before retransmit.
			if !clock.spend(ch.RTT(), &res) {
				return res
			}
			res.MissedFirstPass++
		}
		if delivered {
			st.receive(r, &res)
		}
	}

	markComplete(ch, &clock, pr, pending, st, &res)
	return res
}
