package scenario

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/station"
)

var builtins = []string{
	"as-deployed-2008", "dual-base", "fleet-N", "probe-heavy", "winter-blackout",
}

func TestBuiltinCatalogue(t *testing.T) {
	names := Names()
	for _, want := range builtins {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("builtin %q missing from List (have %v)", want, names)
		}
	}
	for _, s := range List() {
		if s.Description == "" || s.DefaultDays <= 0 {
			t.Fatalf("scenario %q lacks description or horizon", s.Name)
		}
		got, ok := Lookup(s.Name)
		if !ok || got.Name != s.Name {
			t.Fatalf("Lookup(%q) failed", s.Name)
		}
	}
	// List is sorted by name.
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("List not sorted: %v", names)
		}
	}
}

// A Run's start date and special-first fix reach every station of the
// scenario's topology, and its horizon is the scenario's unless Days is set.
func TestRunTopology(t *testing.T) {
	r := Run{Scenario: "dual-base", Params: Params{Seed: 5}, Start: "2009-07-15", SpecialFirst: true}
	top, days, err := r.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Date(2009, time.July, 15, 0, 0, 0, 0, time.UTC); !top.Start.Equal(want) || days != 90 {
		t.Fatalf("start %v, %d days; want %v, 90", top.Start, days, want)
	}
	for i, st := range top.Stations {
		if !st.Runtime.SpecialFirst {
			t.Fatalf("station %d without special-first", i)
		}
	}
	plain, days, err := Run{Scenario: "dual-base", Params: Params{Seed: 5, Days: 3}}.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Start.IsZero() || plain.Stations[0].Runtime.SpecialFirst || days != 3 {
		t.Fatalf("plain run with Days 3: start %v, %d days", plain.Start, days)
	}
	for _, bad := range []Run{
		{Scenario: "no-such-scenario"},
		{Scenario: "dual-base", Start: "15/07/2009"},
		{Scenario: "dual-base", Start: "2009-7-15"},
	} {
		if _, _, err := bad.Topology(); err == nil {
			t.Errorf("%+v resolved", bad)
		}
	}
	// A fleet size is honoured or refused, never silently replaced.
	for _, c := range []struct {
		scenario string
		stations int
		built    int // 0: refused
	}{
		{"as-deployed-2008", 2, 2},
		{"as-deployed-2008", 5, 0},
		{"dual-base", 3, 3},
		{"dual-base", 2, 0},
		{"probe-heavy", 1, 0},
		{"fleet-N", 5, 5},
		{"fleet-N", 2, 2},
		{"fleet-N", 1, 0}, // FleetTopology's floor is two stations
	} {
		top, _, err := Run{Scenario: c.scenario, Params: Params{Stations: c.stations}}.Topology()
		switch {
		case c.built == 0 && !errors.Is(err, ErrStations):
			t.Errorf("%s with %d stations: err %v, want ErrStations", c.scenario, c.stations, err)
		case c.built == 0 && !strings.Contains(err.Error(), fmt.Sprintf("%q builds", c.scenario)):
			t.Errorf("%s with %d stations: %q does not name the scenario and its count", c.scenario, c.stations, err)
		case c.built != 0 && (err != nil || len(top.Stations) != c.built):
			t.Errorf("%s with %d stations: %d built, err %v", c.scenario, c.stations, len(top.Stations), err)
		}
	}
}

// Run.Check and Run.Topology judge a fleet size by each scenario's fleet
// count, which Check reads without building the fleet: it must be the
// size of the fleet Topology builds.
func TestFleetCountIsTheBuiltFleet(t *testing.T) {
	for _, s := range catalogue {
		for _, n := range []int{-1, 0, 1, 2, 3, 4, 5, 17} {
			p := Params{Seed: 3, Stations: n, Probes: 2}
			if built := len(s.topology(p).Stations); s.fleet(p) != built {
				t.Errorf("%s with %d stations: fleet %d, Topology builds %d", s.Name, n, s.fleet(p), built)
			}
		}
	}
}

// The catalogue is fixed: changing what List returns changes nothing else.
func TestListIsACopy(t *testing.T) {
	List()[0].Name = "changed"
	if Names()[0] == "changed" {
		t.Fatal("List exposed the catalogue itself")
	}
}

func TestBuildUnknownScenario(t *testing.T) {
	if _, err := Build("no-such-scenario", Params{}); err == nil {
		t.Fatal("unknown scenario built")
	}
}

func TestEveryBuiltinBuildsAndRunsADay(t *testing.T) {
	for _, name := range builtins {
		d, err := Build(name, Params{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := d.RunDays(1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := d.Result()
		if res.Fleet.Stations != len(d.Stations) || res.Fleet.Runs == 0 {
			t.Fatalf("%s: empty result %+v", name, res.Fleet)
		}
	}
}

func TestFleetNParameterisation(t *testing.T) {
	d, err := Build("fleet-N", Params{Seed: 9, Stations: 8, Probes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Stations) != 8 {
		t.Fatalf("fleet-N -stations 8 built %d stations", len(d.Stations))
	}
	bases, refs, probes := 0, 0, 0
	for _, st := range d.Stations {
		switch st.Role() {
		case station.RoleBase:
			bases++
		case station.RoleReference:
			refs++
		}
	}
	// deploy's TestProbeIDsUniqueAcrossFleet checks the fleet-wide
	// numbering; the cohort sizes come from the built Result.
	for _, sr := range d.Result().Stations {
		probes += sr.ProbesTotal
	}
	if bases != 7 || refs != 1 {
		t.Fatalf("fleet-N shape: %d bases, %d refs", bases, refs)
	}
	if probes != 14 {
		t.Fatalf("fleet cohort %d probes, want 7 bases x 2", probes)
	}
}

func TestWinterBlackoutFaultsApplied(t *testing.T) {
	d, err := Build("winter-blackout", Params{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := d.Station("base")
	ref, _ := d.Station("ref")
	if soc := base.Node().Battery.SoC(); soc > 0.51 {
		t.Fatalf("blackout base starts at soc %.2f, want 0.5", soc)
	}
	// The café mains is gone from the reference fit (deploy's
	// TestMainsBlackoutKeepsOnlySolar checks what the fault removes).
	sc, _ := Lookup("winter-blackout")
	faults := sc.topology(Params{Seed: 4}).Faults
	if !slices.Contains(faults, deploy.Fault{Station: ref.Name(), Kind: deploy.FaultMainsBlackout}) {
		t.Fatalf("blackout faults %+v lack the reference's mains blackout", faults)
	}
}
