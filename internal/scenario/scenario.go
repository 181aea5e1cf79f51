// Package scenario is the fixed catalogue of named deployment topologies
// and the one owner of what a named run builds. A Scenario binds a name
// to a parameterised Topology plus a default horizon and any injected
// faults; a Run adds the start date and the §VI special-first fix a run
// may set on any scenario. Tools (cmd/glacsim), event-log replay, the
// sweep engine, examples and benchmarks all build their runs through
// Run.Topology instead of re-wiring fleets by hand. The catalogue is the
// table in builtin.go.
package scenario

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/deploy"
)

// Params parameterises a scenario build. Zero values select the
// scenario's own defaults.
type Params struct {
	// Seed drives every stochastic process.
	Seed int64
	// Stations sets the fleet size for parameterised scenarios (fleet-N).
	// Any other non-zero value must equal the size the scenario builds.
	Stations int
	// Probes overrides the per-base cohort size.
	Probes int
	// Days overrides the scenario's default horizon (used by callers that
	// honour Horizon; Build itself does not run the deployment).
	Days int
}

// Horizon returns the run length in days: p.Days if set, else the
// scenario default.
func (s Scenario) Horizon(p Params) int {
	if p.Days > 0 {
		return p.Days
	}
	return s.DefaultDays
}

// Scenario is one named deployment shape of the catalogue.
type Scenario struct {
	// Name is the catalogue key (e.g. "as-deployed-2008").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// DefaultDays is the suggested run horizon.
	DefaultDays int
	// topology builds the declarative fleet for the given parameters.
	topology func(p Params) deploy.Topology
	// fleet returns the number of stations topology builds for p, so a
	// fleet size is checked without building the fleet.
	fleet func(p Params) int
}

// Lookup returns the named scenario.
func Lookup(name string) (Scenario, bool) {
	for _, s := range catalogue {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// List returns every scenario sorted by name.
func List() []Scenario { return slices.Clone(catalogue) }

// Names returns every scenario name, sorted.
func Names() []string {
	names := make([]string, len(catalogue))
	for i, s := range catalogue {
		names[i] = s.Name
	}
	return names
}

// Build looks a scenario up and wires its deployment.
func Build(name string, p Params) (*deploy.Deployment, error) {
	top, _, err := Run{Scenario: name, Params: p}.Topology()
	if err != nil {
		return nil, err
	}
	return deploy.Build(top)
}

// Run is the whole description of a named run: what the scenario flag
// group of the CLIs sets and what an event log's header records, so that
// a run rebuilt from either builds the same topology.
type Run struct {
	// Scenario is the catalogue name.
	Scenario string
	Params   Params
	// Start is a "YYYY-MM-DD" start date ("" = the scenario's own).
	Start string
	// SpecialFirst applies the §VI special-before-upload fix on every
	// station.
	SpecialFirst bool
}

// ErrStations marks a Run whose non-zero Params.Stations differs from the
// fleet its scenario builds: a size the scenario cannot honour is refused
// rather than silently replaced.
var ErrStations = errors.New("station count mismatch")

// Topology resolves r into the topology it runs and its horizon in days.
func (r Run) Topology() (deploy.Topology, int, error) {
	s, adjust, err := r.resolve()
	if err != nil {
		return deploy.Topology{}, 0, err
	}
	top := s.topology(r.Params)
	adjust(&top)
	return top, s.Horizon(r.Params), nil
}

// Check reports whether r describes a run its scenario builds: a
// registered scenario, a well-formed start date and a fleet size the
// scenario honours. It builds no topology, so a planner checks a fleet
// of any size at the same cost.
func (r Run) Check() error {
	_, _, err := r.resolve()
	return err
}

// resolve looks r's scenario up and checks r against it, returning the
// scenario and the change r's Start and SpecialFirst make.
func (r Run) resolve() (Scenario, func(*deploy.Topology), error) {
	s, ok := Lookup(r.Scenario)
	if !ok {
		return Scenario{}, nil, fmt.Errorf("scenario %q: not registered (have: %v)", r.Scenario, Names())
	}
	adjust, err := r.Adjust()
	if err != nil {
		return Scenario{}, nil, err
	}
	if n, built := r.Params.Stations, s.fleet(r.Params); n != 0 && n != built {
		return Scenario{}, nil, fmt.Errorf("%w: scenario %q builds %d stations, not %d", ErrStations, r.Scenario, built, n)
	}
	return s, adjust, nil
}

// Adjust returns the change r's Start and SpecialFirst make to a
// topology, or an error for a malformed start date. It is the one place
// either is interpreted. It ignores Scenario and Params, so a sweep
// override can apply it to each cell's own topology.
func (r Run) Adjust() (func(*deploy.Topology), error) {
	var t0 time.Time
	if r.Start != "" {
		var err error
		if t0, err = time.Parse("2006-01-02", r.Start); err != nil {
			return nil, fmt.Errorf("scenario: bad start date: %w", err)
		}
	}
	return func(top *deploy.Topology) {
		if r.Start != "" {
			top.Start = t0
		}
		if r.SpecialFirst {
			// Partial runtime overrides merge with the role defaults in Build.
			for i := range top.Stations {
				top.Stations[i].Runtime.SpecialFirst = true
			}
		}
	}, nil
}
