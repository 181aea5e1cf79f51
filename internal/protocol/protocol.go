// Package protocol implements the base station's probe-data retrieval
// protocols over the lossy sub-glacial radio channel.
//
// The paper's technique (§V) avoids per-packet acknowledgements: the base
// asks a probe to stream everything pending, records which sequence numbers
// arrived broken or missing, and afterwards requests the missing readings
// individually — "unless there were so many that it would be as efficient
// to request them all again". The task is only marked complete on the probe
// when the base holds everything, so a fetch interrupted by the
// communications window or the two-hour watchdog resumes on subsequent days
// with the base requesting only what it is still missing. The deployed code
// also had an untested limit: re-requesting ~400 individual readings "could
// fail", which DefaultNackConfig reproduces.
//
// A conventional stop-and-wait ACK protocol is implemented as the baseline
// the evaluation compares against.
package protocol

import (
	"errors"
	"slices"
	"time"

	"repro/internal/comms"
	"repro/internal/probe"
)

// ErrNackOverflow reports that the individual re-request phase exceeded the
// deployed implementation's untested limit and aborted — the §V field
// failure. Data is not lost: the probe keeps everything unconfirmed.
var ErrNackOverflow = errors.New("protocol: too many individual re-requests; session aborted")

// ErrBudgetExhausted reports that the fetch ran out of its time budget
// (communications window or watchdog) before completing.
var ErrBudgetExhausted = errors.New("protocol: time budget exhausted")

// State is the base station's persistent memory of which readings it
// already holds from one probe. It lives in base-station storage across
// daily sessions — this is what makes multi-day convergence work after an
// interrupted fetch.
type State struct {
	// have is the set of sequence numbers already safely received.
	have map[uint64]struct{}

	// Scratch the fetchers reuse from session to session: wanted is the
	// list of readings a session still needs, got backs Result.Got.
	wanted []probe.Reading
	got    []probe.Reading
}

// NewState returns an empty per-probe fetch state.
func NewState() *State {
	return &State{have: make(map[uint64]struct{})}
}

func (s *State) has(seq uint64) bool {
	_, ok := s.have[seq]
	return ok
}

// begin opens a session on s: it fills the wanted scratch with the pending
// readings s does not hold yet and returns a Result whose Got reuses the
// State's buffer.
//
//glacvet:hotpath
func (s *State) begin(pending []probe.Reading) Result {
	// A session receives each wanted reading at most once, so sizing both
	// buffers for the whole backlog here keeps receive from growing Got.
	s.wanted = slices.Grow(s.wanted[:0], len(pending))
	s.got = slices.Grow(s.got[:0], len(pending))
	for _, r := range pending {
		if !s.has(r.Seq) {
			s.wanted = append(s.wanted, r)
		}
	}
	return Result{Got: s.got}
}

// receive records r as safely held and appends it to the session's Got.
//
//glacvet:hotpath
func (s *State) receive(r probe.Reading, res *Result) {
	s.have[r.Seq] = struct{}{}
	res.Got = append(res.Got, r)
}

// Result describes one fetch session.
type Result struct {
	// Got is the readings newly obtained this session, in sequence order.
	// It shares its backing array with the State the session ran on: it
	// stays valid until the next Fetch with that State, so a caller that
	// keeps readings longer must copy them.
	Got []probe.Reading
	// MissedFirstPass is how many packets the bulk stream lost.
	MissedFirstPass int
	// Nacked is how many individual re-requests were issued.
	Nacked int
	// fullRefetches counts whole-stream retries triggered by heavy loss.
	fullRefetches int
	// AirBytes is the payload volume that crossed the channel (both ways).
	AirBytes int64
	// Elapsed is the channel time the session occupied.
	Elapsed time.Duration
	// Complete reports whether the probe's task was marked complete.
	Complete bool
	// Err is nil, ErrNackOverflow, or ErrBudgetExhausted.
	Err error
}

// requestBytes is the size of a control packet (fetch request, NACK, or
// completion mark).
const requestBytes = 16

// NACK-fetch retry bounds.
const (
	// fullRefetchFraction triggers a whole-stream retry when more than
	// this fraction of the wanted readings is still missing after the
	// first pass.
	fullRefetchFraction float64 = 0.5
	// maxFullRefetches bounds repeated whole-stream retries per session.
	maxFullRefetches = 2
	// nackRetries bounds retransmission attempts per missing reading.
	nackRetries = 6
)

// NackConfig selects the paper's ack-less fetcher as deployed or as fixed.
type NackConfig struct {
	// maxNacks reproduces the deployed bug: if more than this many
	// individual re-requests are needed in one session, the session aborts
	// with ErrNackOverflow. Zero means unlimited (the post-fix behaviour).
	maxNacks int
}

// DefaultNackConfig returns the as-deployed configuration, including the
// untested 256-NACK limit that failed in the field.
func DefaultNackConfig() NackConfig {
	return NackConfig{maxNacks: 256}
}

// FixedNackConfig returns the post-fix configuration with the NACK limit
// removed ("small adjustments could be made ... to try different
// strategies").
func FixedNackConfig() NackConfig {
	return NackConfig{}
}

// NackFetcher is the paper's ack-less bulk fetcher.
type NackFetcher struct {
	cfg NackConfig
}

// NewNackFetcher constructs the fetcher.
func NewNackFetcher(cfg NackConfig) *NackFetcher {
	return &NackFetcher{cfg: cfg}
}

// Fetch runs one session against pr over ch, starting at now, with the
// given time budget. st carries the base's received-set across sessions and
// may be nil for a one-shot fetch. The probe's task is marked complete only
// when the base holds every pending reading.
//
//glacvet:hotpath
func (f *NackFetcher) Fetch(now time.Time, ch *comms.ProbeChannel, pr *probe.Probe,
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

	// Request: "send everything I am missing".
	if !f.sendControl(ch, &clock, &res) {
		return res
	}

	if !f.stream(ch, &clock, wanted, st, &res) {
		return res
	}
	res.MissedFirstPass = countMissing(wanted, st)

	// Heavy loss: "it would be as efficient to request them all again".
	for res.MissedFirstPass > 0 &&
		float64(countMissing(wanted, st)) > fullRefetchFraction*float64(len(wanted)) &&
		res.fullRefetches < maxFullRefetches {
		res.fullRefetches++
		if !f.sendControl(ch, &clock, &res) || !f.stream(ch, &clock, wanted, st, &res) {
			return res
		}
	}

	// Individual re-requests for the remainder.
	for _, r := range wanted {
		if st.has(r.Seq) {
			continue
		}
		if f.cfg.maxNacks > 0 && res.Nacked >= f.cfg.maxNacks {
			// The deployed bug: the process fails beyond its tested size.
			res.Err = ErrNackOverflow
			return res
		}
		res.Nacked++
		// NACK request + retransmission; each retransmission can be lost
		// too, so retry a bounded number of times within budget.
		for attempt := 0; attempt < nackRetries; attempt++ {
			if !f.sendControl(ch, &clock, &res) {
				return res
			}
			if !clock.spend(ch.PacketAirtime(probe.ReadingBytes)+ch.RTT(), &res) {
				return res
			}
			res.AirBytes += probe.ReadingBytes
			if ch.Send(clock.now) {
				st.receive(r, &res)
				break
			}
		}
	}

	markComplete(ch, &clock, pr, pending, st, &res)
	return res
}

// stream is one bulk pass: the probe sends every wanted reading the base
// still lacks, back to back. It returns false on budget exhaustion.
//
//glacvet:hotpath
func (f *NackFetcher) stream(ch *comms.ProbeChannel, clock *budget, wanted []probe.Reading,
	st *State, res *Result) bool {
	for _, r := range wanted {
		if st.has(r.Seq) {
			continue
		}
		if !clock.spend(ch.PacketAirtime(probe.ReadingBytes), res) {
			return false
		}
		res.AirBytes += probe.ReadingBytes
		if ch.Send(clock.now) {
			st.receive(r, res)
		}
	}
	return true
}

func (f *NackFetcher) sendControl(ch *comms.ProbeChannel, clock *budget, res *Result) bool {
	if !clock.spend(ch.PacketAirtime(requestBytes)+ch.RTT(), res) {
		return false
	}
	res.AirBytes += requestBytes
	return true
}

// markComplete confirms the task on the probe when the base holds every
// pending reading, and trims the carried state so it does not grow without
// bound across a deployment. Both fetchers end their sessions here. pending
// is the probe's view: it is read before MarkComplete and never after.
//
//glacvet:hotpath
func markComplete(ch *comms.ProbeChannel, clock *budget, pr *probe.Probe,
	pending []probe.Reading, st *State, res *Result) {
	if len(pending) == 0 {
		res.Complete = true
		return
	}
	for _, r := range pending {
		if !st.has(r.Seq) {
			return
		}
	}
	highest := pending[len(pending)-1].Seq
	if clock.spend(ch.PacketAirtime(requestBytes), res) {
		res.AirBytes += requestBytes
		pr.MarkComplete(highest)
		res.Complete = true
		for seq := range st.have {
			if seq <= highest {
				delete(st.have, seq)
			}
		}
	}
}

func countMissing(wanted []probe.Reading, st *State) int {
	n := 0
	for _, r := range wanted {
		if !st.has(r.Seq) {
			n++
		}
	}
	return n
}

// budget tracks elapsed channel time against a cap.
type budget struct {
	now     time.Time
	left    time.Duration
	elapsed time.Duration
}

func newBudget(now time.Time, d time.Duration) budget {
	return budget{now: now, left: d}
}

// spend consumes d of budget; on exhaustion it records ErrBudgetExhausted
// in res and returns false.
func (b *budget) spend(d time.Duration, res *Result) bool {
	if d > b.left {
		res.Err = ErrBudgetExhausted
		res.Elapsed = b.elapsed
		return false
	}
	b.left -= d
	b.elapsed += d
	b.now = b.now.Add(d)
	res.Elapsed = b.elapsed
	return true
}
