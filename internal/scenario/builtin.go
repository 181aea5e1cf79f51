package scenario

import (
	"time"

	"repro/internal/deploy"
)

// catalogue is the fixed scenario table, sorted by name. Every entry is
// deterministic in (name, Params).
var catalogue = []Scenario{
	{
		Name:        "as-deployed-2008",
		Description: "the paper's Fig 3 pair: one base with the 7-probe cohort, one reference, Sept 2008 start",
		DefaultDays: 120,
		topology: func(p Params) deploy.Topology {
			t := deploy.AsDeployed(p.Seed)
			if p.Probes > 0 {
				t.Stations[0].NumProbes = p.Probes
			}
			return t
		},
		fleet: func(Params) int { return 2 },
	},
	{
		Name:        "dual-base",
		Description: "two glacier bases with independent probe cohorts sharing one reference and one server",
		DefaultDays: 90,
		topology: func(p Params) deploy.Topology {
			probes := 7
			if p.Probes > 0 {
				probes = p.Probes
			}
			return deploy.Topology{
				Seed: p.Seed,
				Stations: []deploy.StationSpec{
					deploy.BaseSpec("base-east", probes),
					deploy.BaseSpec("base-west", probes),
					deploy.ReferenceSpec("ref"),
				},
			}
		},
		fleet: func(Params) int { return 3 },
	},
	{
		Name:        "fleet-N",
		Description: "parameterised fleet: one reference plus N-1 bases (-stations N, default 4), small cohorts",
		DefaultDays: 30,
		topology: func(p Params) deploy.Topology {
			return deploy.FleetTopology(p.Seed, fleetSize(p), p.Probes)
		},
		fleet: fleetSize,
	},
	{
		Name:        "probe-heavy",
		Description: "one base drowning in probes (21 by default): stresses the fetch window and §VI log volume",
		DefaultDays: 60,
		topology: func(p Params) deploy.Topology {
			probes := 21
			if p.Probes > 0 {
				probes = p.Probes
			}
			return deploy.Topology{
				Seed: p.Seed,
				Stations: []deploy.StationSpec{
					deploy.BaseSpec("base", probes),
					deploy.ReferenceSpec("ref"),
				},
			}
		},
		fleet: func(Params) int { return 2 },
	},
	{
		Name:        "winter-blackout",
		Description: "November start, café mains dead all season, both banks half-charged: the power design's worst case",
		DefaultDays: 150,
		topology: func(p Params) deploy.Topology {
			probes := 7
			if p.Probes > 0 {
				probes = p.Probes
			}
			return deploy.Topology{
				Seed:  p.Seed,
				Start: time.Date(2008, time.November, 1, 0, 0, 0, 0, time.UTC),
				Stations: []deploy.StationSpec{
					deploy.BaseSpec("base", probes),
					deploy.ReferenceSpec("ref"),
				},
				Faults: []deploy.Fault{
					{Station: "ref", Kind: deploy.FaultMainsBlackout},
					{Kind: deploy.FaultBatterySoC, Value: 0.5},
				},
			}
		},
		fleet: func(Params) int { return 2 },
	},
}

// fleetSize is the size of fleet-N's fleet: -stations N, 4 by default,
// and never fewer than two stations (a base and the reference), the
// floor deploy.FleetTopology holds to.
func fleetSize(p Params) int {
	if p.Stations == 0 {
		return 4
	}
	return max(p.Stations, 2)
}
