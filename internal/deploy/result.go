package deploy

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/power"
	"repro/internal/station"
)

// StationResult is the unified per-station roll-up: lifetime runtime
// counters, current electrical state, cohort health and what Southampton
// holds for the station.
type StationResult struct {
	// Name identifies the station.
	Name string
	// Role is the station's role.
	Role station.Role
	// Stats are the lifetime runtime counters.
	Stats station.Stats
	// State is the current effective power state.
	State power.State
	// BatterySoC is the battery state of charge.
	BatterySoC float64
	// SpoolLen counts items still waiting to upload.
	SpoolLen int
	// ProbesTotal and ProbesAlive describe the station's own cohort.
	ProbesTotal, ProbesAlive int
	// ProbeReadings sums readings fetched across every daily run.
	ProbeReadings int
	// BytesToServer is the lifetime volume Southampton confirmed.
	BytesToServer int64
	// Uploads counts confirmed server upload calls.
	Uploads int
}

// FleetTotals aggregates StationResults across the fleet.
type FleetTotals struct {
	// Stations is the fleet size.
	Stations int
	// Runs, CompletedRuns, WatchdogTrips, CommsFailures,
	// SpecialsExecuted and Recoveries sum the per-station counters.
	Runs, CompletedRuns, WatchdogTrips, CommsFailures int
	SpecialsExecuted, Recoveries                      int
	// ProbesTotal and ProbesAlive describe the fleet-wide cohort.
	ProbesTotal, ProbesAlive int
	// ProbeReadings sums fetched readings fleet-wide.
	ProbeReadings int
	// BytesToServer and Uploads sum what Southampton received.
	BytesToServer int64
	Uploads       int
}

// Result is a deployment snapshot: per-station roll-ups in topology order
// plus fleet totals. Its ordering is deterministic, so printing it is safe
// for byte-identical summaries (unlike ranging over a station map).
type Result struct {
	// Seed is the deployment's seed.
	Seed int64
	// Now is the simulation time the snapshot was taken.
	Now time.Time
	// Stations holds per-station results in topology order.
	Stations []StationResult
	// Fleet holds the fleet-wide totals.
	Fleet FleetTotals
}

// Result snapshots the deployment.
func (d *Deployment) Result() Result {
	now := d.Sim.Now()
	r := Result{Seed: d.Sim.Seed(), Now: now}
	for _, st := range d.Stations {
		name := st.Name()
		stats := st.Stats()
		sr := StationResult{
			Name:       name,
			Role:       st.Role(),
			Stats:      stats,
			State:      st.State(),
			BatterySoC: st.Node().Battery.SoC(),
			SpoolLen:   st.Spool().Len(),
		}
		for _, p := range d.probesBy[name] {
			sr.ProbesTotal++
			if p.Alive(now) {
				sr.ProbesAlive++
			}
		}
		for _, rep := range st.Reports() {
			sr.ProbeReadings += rep.ProbeReadings
		}
		if rec, ok := d.Server.Station(name); ok {
			sr.BytesToServer = rec.BytesReceived
			sr.Uploads = rec.Uploads
		}
		r.Stations = append(r.Stations, sr)

		r.Fleet.Stations++
		r.Fleet.Runs += stats.Runs
		r.Fleet.CompletedRuns += stats.CompletedRuns
		r.Fleet.WatchdogTrips += stats.WatchdogTrips
		r.Fleet.CommsFailures += stats.CommsFailures
		r.Fleet.SpecialsExecuted += stats.SpecialsExecuted
		r.Fleet.Recoveries += stats.Recoveries
		r.Fleet.ProbesTotal += sr.ProbesTotal
		r.Fleet.ProbesAlive += sr.ProbesAlive
		r.Fleet.ProbeReadings += sr.ProbeReadings
		r.Fleet.BytesToServer += sr.BytesToServer
		r.Fleet.Uploads += sr.Uploads
	}
	return r
}

// String renders the result as a deterministic fleet summary.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== fleet of %d @ %s (seed %d) ===\n",
		r.Fleet.Stations, r.Now.Format("2006-01-02 15:04"), r.Seed)
	for _, sr := range r.Stations {
		fmt.Fprintf(&b, "%-9s %-9s runs=%d completed=%d watchdog=%d commsFail=%d specials=%d recoveries=%d state=%v soc=%.2f spool=%d",
			sr.Name, sr.Role, sr.Stats.Runs, sr.Stats.CompletedRuns,
			sr.Stats.WatchdogTrips, sr.Stats.CommsFailures,
			sr.Stats.SpecialsExecuted, sr.Stats.Recoveries,
			sr.State, sr.BatterySoC, sr.SpoolLen)
		if sr.ProbesTotal > 0 {
			fmt.Fprintf(&b, " probes=%d/%d readings=%d", sr.ProbesAlive, sr.ProbesTotal, sr.ProbeReadings)
		}
		fmt.Fprintf(&b, " server=%.2fMB/%d\n", float64(sr.BytesToServer)/(1<<20), sr.Uploads)
	}
	f := r.Fleet
	fmt.Fprintf(&b, "fleet: runs=%d completed=%d watchdog=%d commsFail=%d specials=%d recoveries=%d probes=%d/%d readings=%d server=%.2fMB/%d\n",
		f.Runs, f.CompletedRuns, f.WatchdogTrips, f.CommsFailures,
		f.SpecialsExecuted, f.Recoveries, f.ProbesAlive, f.ProbesTotal,
		f.ProbeReadings, float64(f.BytesToServer)/(1<<20), f.Uploads)
	return b.String()
}
