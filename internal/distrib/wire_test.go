package distrib

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/deploy"
	"repro/internal/sweep"
)

// specGrid is a declarative grid exercising every axis the wire carries.
func specGrid() sweep.Grid {
	return sweep.Grid{
		Scenarios: []string{"as-deployed-2008", "dual-base"},
		Seeds:     sweep.SeedRange(3, 2),
		Stations:  []int{0},
		Probes:    []int{0},
		Overrides: []sweep.Override{{Name: "nominal"}},
		Days:      2,
	}
}

// The wire must preserve plan identity: a spec encoded to JSON and decoded
// in another process enumerates the same plan, cell for cell, fingerprint
// included.
func TestGridSpecRoundTripPreservesPlan(t *testing.T) {
	g := specGrid()
	blob, err := json.Marshal(SpecOf(g))
	if err != nil {
		t.Fatal(err)
	}
	var spec GridSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	got := spec.Grid()
	planWant, err := sweep.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	planGot, err := sweep.Plan(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(planGot, planWant) {
		t.Fatalf("decoded plan differs:\ngot  %v\nwant %v", planGot, planWant)
	}
	if fpGot, fpWant := sweep.Fingerprint(got, planGot), sweep.Fingerprint(g, planWant); fpGot != fpWant {
		t.Fatalf("fingerprint drifted across the wire: %s vs %s", fpGot, fpWant)
	}
}

func TestHooksFromGridGraftsAndValidates(t *testing.T) {
	applied := 0
	ref := func() sweep.Grid {
		return sweep.Grid{
			Overrides: []sweep.Override{{Name: "tweak", Apply: func(*deploy.Topology) { applied++ }}},
			Observe: func(sweep.Cell, *deploy.Deployment) []sweep.Metric {
				return []sweep.Metric{{Name: "obs", Value: 1}}
			},
		}
	}
	h := HooksFromGrid(ref)
	g := sweep.Grid{Overrides: []sweep.Override{{Name: "tweak"}}}
	if err := h("", &g); err != nil {
		t.Fatal(err)
	}
	if g.Observe == nil {
		t.Fatal("Observe not grafted")
	}
	if g.Overrides[0].Apply == nil {
		t.Fatal("override Apply not grafted")
	}
	g.Overrides[0].Apply(nil)
	if applied != 1 {
		t.Fatal("grafted Apply is not the reference function")
	}
	bad := sweep.Grid{Overrides: []sweep.Override{{Name: "unknown-mutation"}}}
	if err := h("", &bad); err == nil {
		t.Fatal("unknown override name accepted")
	}
}

func TestBuildGridUnknownHooks(t *testing.T) {
	req := ShardRequest{V: WireVersion, Grid: SpecOf(specGrid()), Hooks: "no-such-set"}
	if _, err := req.BuildGrid(); err == nil {
		t.Fatal("unregistered hook set accepted")
	}
}

func TestRegisterHooksValidates(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { RegisterHooks("", func(string, *sweep.Grid) error { return nil }) })
	mustPanic("nil hooks", func() { RegisterHooks("x", nil) })
	// Registration survives the test binary's lifetime, so re-registering
	// an init-registered set is the duplicate case (stable under -count).
	mustPanic("duplicate", func() { RegisterHooks("disttest/tag", testTagHooks) })
}
