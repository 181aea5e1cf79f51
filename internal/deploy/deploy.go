// Package deploy wires complete simulated Glacsweb deployments. A
// declarative Topology lists the fleet's StationSpecs — the paper's Fig 3
// pair is just the two-entry AsDeployed topology — and Build turns it into
// a running Deployment: the Vatnajökull weather, the Southampton server,
// the base stations with their sub-glacial probe cohorts, and the dGPS
// reference stations, ready to run for simulated months.
//
// Stations never talk to each other (§III); every coordination path runs
// through the server's min-rule, which generalises to N stations by name.
// That is why nothing here limits a topology to one base + one reference.
package deploy

import (
	"time"

	"repro/internal/probe"
	"repro/internal/server"
	"repro/internal/simenv"
	"repro/internal/station"
)

// DefaultStart is the deployment scenarios' t0: the 2008 field season.
var DefaultStart = time.Date(2008, time.September, 1, 0, 0, 0, 0, time.UTC)

// Deployment is a fully wired simulated field system of any size.
type Deployment struct {
	// Sim is the shared simulator.
	Sim *simenv.Simulator
	// Server is Southampton.
	Server *server.Server
	// Stations is the fleet, in topology order.
	Stations []*station.Station

	byName   map[string]*station.Station
	probesBy map[string][]*probe.Probe
}

// Station returns the named station.
func (d *Deployment) Station(name string) (*station.Station, bool) {
	st, ok := d.byName[name]
	return st, ok
}

// StationNames returns the fleet's names in topology order.
func (d *Deployment) StationNames() []string {
	names := make([]string, len(d.Stations))
	for i, st := range d.Stations {
		names[i] = st.Name()
	}
	return names
}

// RunDays advances the deployment by whole days.
func (d *Deployment) RunDays(days int) error {
	return d.Sim.RunFor(time.Duration(days) * 24 * time.Hour)
}

// RunUntil advances the deployment to an absolute time.
func (d *Deployment) RunUntil(t time.Time) error {
	return d.Sim.Run(t)
}
