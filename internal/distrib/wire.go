// The request side of the shard wire: a GridSpec is the declarative part
// of a sweep.Grid — every axis, no functions — encoded so a worker process
// can rebuild the identical plan, and a ShardRequest pairs a spec with the
// plan fingerprint and the global cell indices to execute. The response
// side needs no new format: it is the partial-summary WriteJSON document
// sweep.ReadSummary already decodes.
package distrib

import (
	"fmt"

	"repro/internal/sweep"
)

// WireVersion is the shard request protocol version; a worker refuses
// requests from a different version instead of guessing. Version 2 dropped
// version 1's hook_args. The worker also refuses any field its request
// schema lacks, so a request it would only partly understand is an error
// at any version.
const WireVersion = 2

// GridSpec is the declarative encoding of a sweep.Grid: the axes that
// Fingerprint hashes. Overrides carry names only — Apply functions, like
// the Drive hook, are reattached on the worker from a registered hook set.
//
//glacvet:wire
type GridSpec struct {
	Scenarios []string `json:"scenarios"`
	Seeds     []int64  `json:"seeds"`
	Stations  []int    `json:"stations,omitempty"`
	Probes    []int    `json:"probes,omitempty"`
	Overrides []string `json:"overrides,omitempty"`
	Days      int      `json:"days,omitempty"`
}

// SpecOf extracts a grid's declarative spec for the wire.
func SpecOf(g sweep.Grid) GridSpec {
	s := GridSpec{
		Scenarios: g.Scenarios, Seeds: g.Seeds,
		Stations: g.Stations, Probes: g.Probes, Days: g.Days,
	}
	for _, ov := range g.Overrides {
		s.Overrides = append(s.Overrides, ov.Name)
	}
	return s
}

// Grid rebuilds the declarative grid a spec encodes. Override Apply
// functions and the per-cell hooks are nil until a hook set reattaches
// them; a grid that never had any runs as-is — exactly like a plain
// glacsim sweep.
func (s GridSpec) Grid() sweep.Grid {
	g := sweep.Grid{
		Scenarios: s.Scenarios, Seeds: s.Seeds,
		Stations: s.Stations, Probes: s.Probes, Days: s.Days,
	}
	for _, name := range s.Overrides {
		g.Overrides = append(g.Overrides, sweep.Override{Name: name})
	}
	return g
}

// ShardRequest is the body of POST /shard: run the cells at Indices of the
// plan the grid spec enumerates. Fingerprint and TotalCells are the
// coordinator's view of that plan; the worker recomputes both and refuses
// the shard on any mismatch, so grid drift between binaries is an error,
// never a silently different result.
//
//glacvet:wire
type ShardRequest struct {
	V           int      `json:"v"`
	Fingerprint string   `json:"fingerprint"`
	TotalCells  int      `json:"total_cells"`
	Indices     []int    `json:"indices"`
	Grid        GridSpec `json:"grid"`
	// Hooks names the registered hook set the worker reattaches before
	// planning; empty for a purely declarative grid.
	Hooks string `json:"hooks,omitempty"`
}

// BuildGrid rebuilds the executable grid of a request: the declarative
// spec plus, when the request names one, the registered hook set.
func (req ShardRequest) BuildGrid() (sweep.Grid, error) {
	g := req.Grid.Grid()
	if req.Hooks != "" {
		h, ok := LookupHooks(req.Hooks)
		if !ok {
			return sweep.Grid{}, fmt.Errorf("distrib: hook set %q not registered in this binary", req.Hooks)
		}
		if err := h("", &g); err != nil {
			return sweep.Grid{}, fmt.Errorf("distrib: hook set %q: %w", req.Hooks, err)
		}
	}
	return g, nil
}
