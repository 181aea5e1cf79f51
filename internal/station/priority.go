package station

import (
	"time"

	"repro/internal/comms"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/storage"
)

// PriorityEvaluator implements the paper's §VII extension: "enabling the
// base station to analyse the data collected and prioritise it, forcing
// communication even if the available power is marginal if the data
// warrants it". It inspects the day's freshly fetched probe readings and
// returns a priority in [0,1].
//
// The as-deployed system has no evaluator (Config.Priority nil): power
// state 0 always means silence. With an evaluator configured, a priority at
// or above ForceCommsThreshold forces a minimal GPRS session — state upload
// plus the high-priority data only — even in state 0.
type PriorityEvaluator interface {
	// Evaluate scores the day's readings. The station reuses the slice
	// the next day, so an evaluator must not keep it past the call.
	Evaluate(readings []probe.Reading) (priority float64)
}

// ForceCommsThreshold is the priority at or above which a state-0 day still
// communicates.
const ForceCommsThreshold = 0.8

// ConductivitySpikeEvaluator flags sudden basal-conductivity excursions —
// the signature of melt water reaching the bed, the event the glaciologists
// care most about catching promptly.
type ConductivitySpikeEvaluator struct{}

var _ PriorityEvaluator = (*ConductivitySpikeEvaluator)(nil)

// spikeUS is the conductivity above which a reading is a full-priority
// event.
const spikeUS float64 = 8

// NewConductivitySpikeEvaluator returns the evaluator.
func NewConductivitySpikeEvaluator() *ConductivitySpikeEvaluator {
	return &ConductivitySpikeEvaluator{}
}

// Evaluate implements PriorityEvaluator.
func (*ConductivitySpikeEvaluator) Evaluate(readings []probe.Reading) float64 {
	var worst float64
	for _, r := range readings {
		if r.ConductivityUS > worst {
			worst = r.ConductivityUS
		}
	}
	if worst >= spikeUS {
		return 1
	}
	if worst > 0 {
		return worst / spikeUS * 0.5 // background level, never forces
	}
	return 0
}

// enqueueForcedComms runs the §VII marginal-power session: attach, upload
// the power state and the priority data, detach. No GPS drain, no full
// spool flush — the minimum spend that gets the event out today.
func (s *Station) enqueueForcedComms(local power.State) {
	s.enqueueWork("forced-comms", func(now time.Time) (time.Duration, func(time.Time)) {
		s.node.MCU.SetRail(comms.GPRSRail, true)
		return s.node.Modem.AttachTime(), func(done time.Time) {
			defer func() {
				s.node.Modem.Detach()
				s.node.MCU.SetRail(comms.GPRSRail, false)
			}()
			if err := s.node.Modem.Attach(done); err != nil {
				return
			}
			s.cur.CommsOK = true
			s.cur.ForcedComms = true
			// State first, then only the probe-data items.
			if res := s.node.Modem.TryTransfer(done, stateMsgBytes); !res.Completed() {
				return
			}
			s.srv.UploadState(s.node.Name, local, done)
			for _, item := range s.spool.Items() {
				if item.Kind != storage.KindProbeData {
					continue
				}
				res := s.node.Modem.TryTransfer(done, item.Bytes)
				if !res.Completed() {
					return
				}
				s.srv.UploadData(s.node.Name, item.Bytes)
				_ = s.spool.MarkSent(item.ID)
				s.cur.UploadedBytes += item.Bytes
			}
		}
	})
}
