package station

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/power"
	"repro/internal/server"
)

// SpecialRegistry interprets "special" command scripts sent from
// Southampton. The deployed system ran arbitrary shell; the simulation
// exposes a small command language covering everything the experiments
// need, including the interventions that unblock a wedged station.
//
// Commands (one per script):
//
//	noop                     do nothing, confirm liveness
//	status                   report battery/spool/backlog state
//	set-rs232 <fraction>     adjust the dGPS drain-rate health factor
//	skip-gps-file            delete the head file on the dGPS CF card
//	set-state <0-3>          force next power state (clamped as usual)
//	drop-spool               discard the upload spool (declared data loss)
type SpecialRegistry struct {
	st *Station
}

// NewSpecialRegistry binds the command set to a station.
func NewSpecialRegistry(st *Station) *SpecialRegistry {
	return &SpecialRegistry{st: st}
}

// Execute runs a script and returns its captured output.
func (r *SpecialRegistry) Execute(script string, now time.Time) string {
	fields := strings.Fields(script)
	if len(fields) == 0 {
		return "error: empty special"
	}
	s := r.st
	switch fields[0] {
	case "noop":
		return "ok"
	case "status":
		snap := s.node.Snapshot()
		return fmt.Sprintf("soc=%.2f volts=%.2f state=%s spool=%d gpsfiles=%d",
			snap.SoC, snap.Volts, s.state, s.spool.Len(), s.node.GPS.FileCount())
	case "set-rs232":
		if len(fields) != 2 {
			return "error: set-rs232 needs a fraction"
		}
		f, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || f <= 0 || f > 1 {
			return "error: bad fraction " + fields[1]
		}
		s.rs232Health = f
		return "ok rs232=" + fields[1]
	case "skip-gps-file":
		f, ok := s.node.GPS.Oldest()
		if !ok {
			return "ok nothing-to-skip"
		}
		if err := s.node.GPS.Delete(f.ID); err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("ok skipped file %d (%d bytes)", f.ID, f.SizeBytes)
	case "set-state":
		if len(fields) != 2 {
			return "error: set-state needs 0-3"
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return "error: bad state " + fields[1]
		}
		// The station-side clamps still apply: this is an override, not a
		// command ("logic running on the stations themselves ... does not
		// allow the state to be set higher than the battery voltage
		// allows, or for the station to be forced into power state 0").
		s.state = power.ApplyOverride(s.state, power.State(n))
		return "ok state=" + s.state.String()
	case "drop-spool":
		n := s.spool.Len()
		for {
			item, ok := s.spool.Peek()
			if !ok {
				break
			}
			_ = s.spool.MarkSent(item.ID)
		}
		return fmt.Sprintf("ok dropped %d items", n)
	default:
		return "error: unknown special " + fields[0]
	}
}

// executeSpecial runs a fetched special and queues its output for the
// (next-day) log upload.
func (s *Station) executeSpecial(sp server.Special, now time.Time) {
	out := s.specials.Execute(sp.Script, now)
	s.stats.SpecialsExecuted++
	s.pendingOutputs = append(s.pendingOutputs, server.SpecialOutput{
		Output:     out,
		ExecutedAt: now,
	})
}
