// The replayer: rebuild the run a log's header describes, re-execute it
// with a Verifier attached, and report the first event where the fresh
// run departs from the recording. This is the event-level golden: where
// a summary golden says "output changed", a replay says which event, at
// which simulated instant, ran differently.
package evlog

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/deploy"
	"repro/internal/scenario"
	"repro/internal/simenv"
)

// Divergence describes the first point where two event streams
// disagree: a run against its log (Verifier), or log B against log A
// (Diff). It implements error so CLI callers can return it directly.
type Divergence struct {
	// Index is the 0-based executed-event index of the disagreement.
	Index uint64
	// Want is the log's record at Index, or log A's (valid iff HaveWant:
	// the log may have ended before the run did).
	Want     Record
	HaveWant bool
	// Got is the event the run executed at Index, or log B's record
	// (valid iff HaveGot: the run may have ended before the log did).
	Got     Record
	HaveGot bool
	// headerNote is non-empty when two diffed logs' headers describe
	// different runs — a diff of different scenarios or seeds is almost
	// certainly comparing the wrong files, so Report says so up front.
	headerNote string
}

func (d *Divergence) Error() string {
	const stamp = time.RFC3339Nano
	switch {
	case d.HaveWant && d.HaveGot:
		return fmt.Sprintf("event %d: expected %s at %s, got %s at %s",
			d.Index, d.Want.Name, d.Want.At().Format(stamp), d.Got.Name, d.Got.At().Format(stamp))
	case d.HaveGot:
		return fmt.Sprintf("event %d: the log ends at %d events but the run executed %s at %s",
			d.Index, d.Index, d.Got.Name, d.Got.At().Format(stamp))
	default:
		return fmt.Sprintf("event %d: the run ended after %d events but the log expects %s at %s",
			d.Index, d.Index, d.Want.Name, d.Want.At().Format(stamp))
	}
}

// Verifier checks a live run against a recorded log, event for event.
// Attach it before the run; it stops the simulation at the first
// divergence (there is nothing left to learn past it), and Finish
// returns the verdict.
type Verifier struct {
	sim  *simenv.Simulator
	log  *Log
	next int
	div  *Divergence
}

// AttachVerifier registers a verifier for l's records on the simulator.
func AttachVerifier(sim *simenv.Simulator, l *Log) *Verifier {
	v := &Verifier{sim: sim, log: l}
	sim.OnEvent(v.observe)
	return v
}

// observe compares one executed event against the log. It builds a
// Record only at a divergence.
func (v *Verifier) observe(name string, at time.Time) {
	if v.div != nil {
		return
	}
	sec, nsec := at.Unix(), int32(at.Nanosecond())
	if v.next < len(v.log.recs) {
		want := v.log.recs[v.next]
		if want.sec == sec && want.nsec == nsec && v.log.names[want.name] == name {
			v.next++
			return
		}
	}
	v.div = &Divergence{Index: uint64(v.next), Got: Record{Seq: uint64(v.next), AtSec: sec, AtNsec: nsec, Name: name}, HaveGot: true}
	if v.next < len(v.log.recs) {
		v.div.Want, v.div.HaveWant = v.log.Record(v.next), true
	}
	v.sim.Stop()
}

// Finish returns the first divergence, or nil for a step-for-step
// equivalent run. Call it after the run completes: a run that ended
// early (fewer events than the log) only shows up here.
func (v *Verifier) Finish() *Divergence {
	if v.div == nil && v.next < len(v.log.recs) {
		v.div = &Divergence{Index: uint64(v.next), Want: v.log.Record(v.next), HaveWant: true}
	}
	return v.div
}

// Rebuild wires the deployment a log's header describes and returns it
// with the run horizon in days. It refuses logs recorded under a named
// hook set: those runs were driven by behaviour (campaign drivers,
// samplers) that lives outside the header.
func Rebuild(h Header) (*deploy.Deployment, int, error) {
	if h.Hooks != "" {
		return nil, 0, fmt.Errorf("evlog: log was recorded under the %q hook set; only plain scenario runs can be rebuilt from a header", h.Hooks)
	}
	top, days, err := scenario.Run{
		Scenario:     h.Scenario,
		Params:       scenario.Params{Seed: h.Seed, Stations: h.Stations, Probes: h.Probes, Days: h.Days},
		Start:        h.Start,
		SpecialFirst: h.SpecialFirst,
	}.Topology()
	if err != nil {
		return nil, 0, fmt.Errorf("evlog: rebuild from header: %w", err)
	}
	d, err := deploy.Build(top)
	if err != nil {
		return nil, 0, fmt.Errorf("evlog: rebuild %s: %w", h.Scenario, err)
	}
	return d, days, nil
}

// Verify rebuilds the run described by the log's header, replays it
// with a Verifier attached, and returns the first divergence (nil for a
// step-for-step equivalent run). The error return is for infrastructure
// failures — an unknown scenario, a hook-driven log — never a mismatch.
func Verify(l *Log) (*Divergence, error) {
	d, days, err := Rebuild(l.header)
	if err != nil {
		return nil, err
	}
	v := AttachVerifier(d.Sim, l)
	// ErrStopped is the verifier cutting the run short at a divergence;
	// any other error is a real failure.
	if err := d.RunDays(days); err != nil && !errors.Is(err, simenv.ErrStopped) {
		return nil, fmt.Errorf("evlog: replay run: %w", err)
	}
	return v.Finish(), nil
}
