package deploy

import (
	"fmt"
	"time"

	"repro/internal/comms"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/probe"
	"repro/internal/server"
	"repro/internal/simenv"
	"repro/internal/station"
	"repro/internal/weather"
)

// FirstProbeID is where automatic probe numbering starts — the paper's
// cohort is numbered from 21.
const FirstProbeID = 21

// StationSpec declares one station of a Topology: its name, role, hardware
// fit, probe cohort and runtime overrides. The zero value of every field
// means "the as-deployed default for the role".
type StationSpec struct {
	// name is the fleet-unique station name — how the Southampton server
	// identifies it. Empty names are filled in by Build ("base", "base2",
	// ..., "ref", "ref2", ...).
	name string
	// role selects base or reference behaviour; zero means base.
	role station.Role
	// NumProbes is the station's sub-glacial cohort size. Only base-role
	// stations fetch probes; 0 means no cohort.
	NumProbes int
	// Runtime holds the station's SpecialFirst and Priority overrides;
	// its Role is always the spec's. The zero value is the deployed
	// runtime.
	Runtime station.Config
	// Hardware overrides the node fit; nil selects the role's deployed
	// fit (core.BaseStationConfig / core.ReferenceStationConfig). The
	// node name is always forced to the spec name.
	Hardware *core.NodeConfig
}

// FaultKind enumerates the injectable deployment faults.
type FaultKind int

// Injectable fault kinds.
const (
	// FaultRS232 degrades the dGPS serial link; Value is the health
	// fraction (1 = nominal, small values reproduce the §VI single-file
	// deadlock).
	FaultRS232 FaultKind = iota + 1
	// FaultBatterySoC forces the initial battery state of charge to Value.
	FaultBatterySoC
	// FaultStuckLoad pins Value watts on the power bus — the hung-transfer
	// failure mode behind the §IV recovery story.
	FaultStuckLoad
	// FaultMainsBlackout removes mains chargers from the station's fit
	// (the café loses power); Value is ignored.
	FaultMainsBlackout
)

func (k FaultKind) String() string {
	switch k {
	case FaultRS232:
		return "rs232"
	case FaultBatterySoC:
		return "battery-soc"
	case FaultStuckLoad:
		return "stuck-load"
	case FaultMainsBlackout:
		return "mains-blackout"
	default:
		return "unknown"
	}
}

// Fault is one injected fault, applied at build time.
type Fault struct {
	// Station targets one station by name; empty targets every station.
	Station string
	// Kind selects the fault.
	Kind FaultKind
	// Value parameterises the fault (see FaultKind).
	Value float64
}

// Topology declares a whole fleet: the stations, the shared climate and
// server, and any injected faults. Stations never talk to each other
// (§III), so nothing here limits the fleet to the paper's pair — the
// server's min-rule generalises to N stations by name.
type Topology struct {
	// Seed drives every stochastic process.
	Seed int64
	// Start is the simulation start time; zero means DefaultStart.
	Start time.Time
	// Stations declares the fleet, in order.
	Stations []StationSpec
	// Faults are injected at build time.
	Faults []Fault
}

// BaseSpec returns a base-station spec with a probe cohort.
func BaseSpec(name string, numProbes int) StationSpec {
	return StationSpec{name: name, role: station.RoleBase, NumProbes: numProbes}
}

// ReferenceSpec returns a reference-station spec.
func ReferenceSpec(name string) StationSpec {
	return StationSpec{name: name, role: station.RoleReference}
}

// AsDeployed returns the paper's Fig 3 topology: one base station with the
// seven-probe cohort and one reference station, starting September 2008.
func AsDeployed(seed int64) Topology {
	return Topology{
		Seed: seed,
		Stations: []StationSpec{
			BaseSpec("base", 7),
			ReferenceSpec("ref"),
		},
	}
}

// FleetTopology returns an n-station fleet: one reference station plus n-1
// base stations, each with its own probe cohort and radio cell. Station
// names are zero-padded so fleet output sorts in build order.
func FleetTopology(seed int64, n, probesPerBase int) Topology {
	if n < 2 {
		n = 2
	}
	if probesPerBase <= 0 {
		probesPerBase = 3
	}
	specs := make([]StationSpec, 0, n)
	for i := 1; i < n; i++ {
		specs = append(specs, BaseSpec(fmt.Sprintf("base-%02d", i), probesPerBase))
	}
	specs = append(specs, ReferenceSpec("ref-01"))
	return Topology{Seed: seed, Stations: specs}
}

// resolve fills in defaults and validates the topology, returning the
// resolved copy Build works from.
func (t Topology) resolve() (Topology, error) {
	if len(t.Stations) == 0 {
		return t, fmt.Errorf("deploy: topology has no stations")
	}
	if t.Start.IsZero() {
		t.Start = DefaultStart
	}
	specs := make([]StationSpec, len(t.Stations))
	copy(specs, t.Stations)
	names := make(map[string]bool, len(specs))
	roleCount := map[station.Role]int{}
	for i := range specs {
		sp := &specs[i]
		if sp.role == 0 {
			sp.role = station.RoleBase
		}
		roleCount[sp.role]++
		if sp.name == "" {
			prefix := "base"
			if sp.role == station.RoleReference {
				prefix = "ref"
			}
			if n := roleCount[sp.role]; n > 1 {
				sp.name = fmt.Sprintf("%s%d", prefix, n)
			} else {
				sp.name = prefix
			}
		}
		if names[sp.name] {
			return t, fmt.Errorf("deploy: duplicate station name %q", sp.name)
		}
		names[sp.name] = true
	}
	for _, f := range t.Faults {
		switch f.Kind {
		case FaultRS232, FaultBatterySoC, FaultStuckLoad, FaultMainsBlackout:
		default:
			return t, fmt.Errorf("deploy: fault targeting %q has unknown kind %d", f.Station, f.Kind)
		}
		if f.Station != "" && !names[f.Station] {
			return t, fmt.Errorf("deploy: fault %v targets unknown station %q", f.Kind, f.Station)
		}
	}
	t.Stations = specs
	return t, nil
}

// Build wires a fleet from a declarative topology. Same topology and seed
// ⇒ identical deployment, event for event.
func Build(t Topology) (*Deployment, error) {
	t, err := t.resolve()
	if err != nil {
		return nil, err
	}

	sim := simenv.NewAt(t.Seed, t.Start)
	wx := weather.New(t.Seed)
	srv := server.New()
	d := &Deployment{
		Sim:      sim,
		Server:   srv,
		byName:   make(map[string]*station.Station, len(t.Stations)),
		probesBy: make(map[string][]*probe.Probe, len(t.Stations)),
	}

	// Probe IDs are numbered fleet-wide so every probe's noise/lifetime
	// stream stays unique.
	nextProbeID := FirstProbeID
	for _, sp := range t.Stations {
		ncfg := nodeConfigFor(sp, t.Faults)
		node := core.NewNode(sim, wx, ncfg)

		// Base stations get their own radio cell and cohort: probes talk
		// only to their base, exactly as stations talk only to Southampton.
		var channel *comms.ProbeChannel
		var probes []*probe.Probe
		if sp.role == station.RoleBase && sp.NumProbes > 0 {
			channel = comms.NewProbeChannel(sim, wx)
			probes = make([]*probe.Probe, 0, sp.NumProbes)
			for i := 0; i < sp.NumProbes; i++ {
				probes = append(probes, probe.New(sim, wx, probe.DefaultConfig(nextProbeID)))
				nextProbeID++
			}
		}

		st := station.New(node, srv, channel, probes, runtimeFor(sp))
		applyStationFaults(st, sp.name, t.Faults)

		d.Stations = append(d.Stations, st)
		d.byName[sp.name] = st
		d.probesBy[sp.name] = probes
	}
	return d, nil
}

// runtimeFor is the spec's runtime under the spec's role.
func runtimeFor(sp StationSpec) station.Config {
	rt := sp.Runtime
	rt.Role = sp.role
	return rt
}

// nodeConfigFor resolves the spec's hardware fit and applies the
// build-time faults that change it.
func nodeConfigFor(sp StationSpec, faults []Fault) core.NodeConfig {
	var cfg core.NodeConfig
	if sp.Hardware != nil {
		cfg = *sp.Hardware
	} else if sp.role == station.RoleReference {
		cfg = core.ReferenceStationConfig(sp.name)
	} else {
		cfg = core.BaseStationConfig(sp.name)
	}
	cfg.Name = sp.name
	for _, f := range faults {
		if f.Station != "" && f.Station != sp.name {
			continue
		}
		switch f.Kind {
		case FaultMainsBlackout:
			kept := make([]energy.Charger, 0, len(cfg.Chargers))
			for _, ch := range cfg.Chargers {
				if _, mains := ch.(*energy.MainsCharger); !mains {
					kept = append(kept, ch)
				}
			}
			cfg.Chargers = kept
		}
	}
	return cfg
}

// applyStationFaults applies the faults that act on a built station.
func applyStationFaults(st *station.Station, name string, faults []Fault) {
	for _, f := range faults {
		if f.Station != "" && f.Station != name {
			continue
		}
		switch f.Kind {
		case FaultRS232:
			st.SetRS232Health(f.Value)
		case FaultBatterySoC:
			st.Node().Battery.SetSoC(f.Value)
		case FaultStuckLoad:
			st.Node().Bus.SetLoad("fault.stuck", f.Value)
		}
	}
}
