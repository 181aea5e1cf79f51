package deploy

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/station"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Topology{Seed: 1}); err == nil {
		t.Fatal("empty topology built")
	}
	if _, err := Build(Topology{Seed: 1, Stations: []StationSpec{
		BaseSpec("a", 2), BaseSpec("a", 2),
	}}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := Build(Topology{Seed: 1, Stations: []StationSpec{BaseSpec("a", 1)},
		Faults: []Fault{{Station: "ghost", Kind: FaultRS232, Value: 0.5}}}); err == nil {
		t.Fatal("fault on unknown station accepted")
	}
	if _, err := Build(Topology{Seed: 1, Stations: []StationSpec{BaseSpec("a", 1)},
		Faults: []Fault{{Station: "a", Value: 0.5}}}); err == nil {
		t.Fatal("fault with zero kind accepted")
	}
}

// Probe IDs are numbered fleet-wide, never per station: every probe's
// noise/lifetime stream is keyed on its ID.
func TestProbeIDsUniqueAcrossFleet(t *testing.T) {
	d, err := Build(Topology{Seed: 1, Stations: []StationSpec{
		{name: "a", role: station.RoleBase, NumProbes: 2},
		{name: "b", role: station.RoleBase, NumProbes: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, name := range d.StationNames() {
		for _, p := range d.probesBy[name] {
			if seen[p.ID()] {
				t.Fatalf("duplicate probe ID %d across fleet", p.ID())
			}
			seen[p.ID()] = true
		}
	}
	for _, id := range []int{21, 22, 23, 24, 25} {
		if !seen[id] {
			t.Fatalf("expected probe ID %d (have %v)", id, seen)
		}
	}
}

// A runtime override changes only what it sets: the station keeps the
// role's deployed defaults for everything else.
func TestPartialRuntimeOverrideMerges(t *testing.T) {
	d, err := Build(Topology{Seed: 1, Stations: []StationSpec{
		{name: "b", role: station.RoleBase, NumProbes: 1,
			Runtime: station.Config{SpecialFirst: true}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The deployed defaults survived the override: the station starts
	// in state 2, not the zero-value state 0 (which would also disable
	// its comms entirely).
	b := mustStation(t, d, "b")
	if b.State() != power.State2 {
		t.Fatalf("partial override lost defaults: initial state %v", b.State())
	}
	// And the override itself took effect: the special-first early comms
	// session runs, so a queued special executes even though the §VI
	// as-deployed ordering would also work — observe via the server.
	d.Server.PushSpecial("b", "echo hi")
	if err := d.RunDays(1); err != nil {
		t.Fatal(err)
	}
	if b.Stats().SpecialsExecuted != 1 {
		t.Fatalf("special not executed under merged runtime")
	}
}

func TestBuildDefaultNamesAndLookup(t *testing.T) {
	d, err := Build(Topology{Seed: 1, Stations: []StationSpec{
		{role: station.RoleBase, NumProbes: 1},
		{role: station.RoleBase},
		{role: station.RoleReference},
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"base", "base2", "ref"}
	if got := d.StationNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("default names %v, want %v", got, want)
	}
	for _, name := range want {
		st, ok := d.Station(name)
		if !ok || st.Name() != name {
			t.Fatalf("lookup %q failed", name)
		}
	}
	if _, ok := d.Station("ghost"); ok {
		t.Fatal("lookup of unknown station succeeded")
	}
}

// Same seed ⇒ identical fleet Result, field for field and byte for byte.
func TestFleetBuildDeterminism(t *testing.T) {
	run := func() Result {
		d, err := Build(FleetTopology(11, 5, 3))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.RunDays(15); err != nil {
			t.Fatal(err)
		}
		return d.Result()
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", r1, r2)
	}
	if r1.String() != r2.String() {
		t.Fatalf("summaries differ:\n%s\nvs\n%s", r1, r2)
	}
	if len(r1.Stations) != 5 || r1.Fleet.Stations != 5 {
		t.Fatalf("fleet result covers %d stations", len(r1.Stations))
	}
	if r1.Fleet.Runs < 5*14 {
		t.Fatalf("fleet ran only %d station-days", r1.Fleet.Runs)
	}
}

// The §III coordination rule at fleet scale: one station reporting a low
// state pulls every other station down through the server's min-rule, with
// no inter-station link.
func TestServerMinRuleConvergesAcrossFleet(t *testing.T) {
	top := FleetTopology(42, 4, 2) // base-01..base-03 + ref-01
	// base-01's chargers are dead and its bank is low: its daily average
	// voltage computes a state-1 local state that it keeps reporting.
	hw := core.BaseStationConfig("base-01")
	hw.Chargers = nil
	top.Stations[0].Hardware = &hw
	top.Faults = []Fault{{Station: "base-01", Kind: FaultBatterySoC, Value: 0.25}}
	d, err := Build(top)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunDays(4); err != nil {
		t.Fatal(err)
	}

	// The weak station must have reported a degraded local state.
	weak, _ := d.Station("base-01")
	lowDays := 0
	for _, r := range weak.Reports() {
		if r.LocalState <= power.State1 {
			lowDays++
		}
	}
	if lowDays == 0 {
		t.Fatal("faulted station never computed a low local state")
	}

	// Every healthy station must have been held below its local state by
	// the override at least once — that is the min-rule reaching N>2
	// stations by name.
	heldStations := 0
	for _, name := range []string{"base-02", "base-03", "ref-01"} {
		st, ok := d.Station(name)
		if !ok {
			t.Fatalf("station %s missing", name)
		}
		for _, r := range st.Reports() {
			if r.OverrideFetched && r.Override < r.LocalState && r.Effective == r.Override {
				heldStations++
				break
			}
		}
	}
	if heldStations < 2 {
		t.Fatalf("min-rule held only %d/3 healthy stations below their local state", heldStations)
	}
}

func TestResultStationLookupAndString(t *testing.T) {
	d, err := Build(FleetTopology(7, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunDays(3); err != nil {
		t.Fatal(err)
	}
	res := d.Result()
	if sr := res.Stations[0]; sr.Name != "base-01" || sr.Stats.Runs != 3 {
		t.Fatalf("first station result: %s runs=%d", sr.Name, sr.Stats.Runs)
	}
	out := res.String()
	for _, want := range []string{"base-01", "base-02", "ref-01", "fleet:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	// Stations appear in topology order, not map order.
	if strings.Index(out, "base-01") > strings.Index(out, "base-02") ||
		strings.Index(out, "base-02") > strings.Index(out, "ref-01") {
		t.Fatalf("summary out of topology order:\n%s", out)
	}
}
