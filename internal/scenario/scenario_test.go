package scenario

import (
	"slices"
	"strings"
	"testing"

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

func TestRegisterRejectsDuplicatesAndBadInput(t *testing.T) {
	if err := Register(Scenario{Name: "as-deployed-2008", Topology: func(Params) deploy.Topology { return deploy.AsDeployed(1) }}); err == nil {
		t.Fatal("duplicate register accepted")
	} else if !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("wrong duplicate error: %v", err)
	}
	if err := Register(Scenario{Name: "", Topology: func(Params) deploy.Topology { return deploy.AsDeployed(1) }}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := Register(Scenario{Name: "no-topology"}); err == nil {
		t.Fatal("nil topology accepted")
	}
}

func TestRegisterAndBuildCustom(t *testing.T) {
	s := Scenario{
		Name:        "test-solo-base",
		Description: "one base, no reference",
		DefaultDays: 7,
		Topology: func(p Params) deploy.Topology {
			return deploy.Topology{Seed: p.Seed, Stations: []deploy.StationSpec{deploy.BaseSpec("solo", 2)}}
		},
	}
	if err := Register(s); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { unregister(s.Name) })
	d, err := Build("test-solo-base", Params{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	solo, ok := d.Station("solo")
	if len(d.Stations) != 1 || !ok || solo.Role() != station.RoleBase {
		t.Fatalf("solo build wrong: %d stations", len(d.Stations))
	}
	if err := d.RunDays(2); err != nil {
		t.Fatal(err)
	}
	if solo.Stats().Runs != 2 {
		t.Fatalf("solo base ran %d days", solo.Stats().Runs)
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
	faults := sc.Topology(Params{Seed: 4}).Faults
	if !slices.Contains(faults, deploy.Fault{Station: ref.Name(), Kind: deploy.FaultMainsBlackout}) {
		t.Fatalf("blackout faults %+v lack the reference's mains blackout", faults)
	}
}
