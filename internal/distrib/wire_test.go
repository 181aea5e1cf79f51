package distrib

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/deploy"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/trace"
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
			Drive: func(sweep.Cell, *deploy.Deployment) ([]sweep.Metric, []*trace.Series, error) {
				return []sweep.Metric{{Name: "drive", Value: 1}}, nil, nil
			},
		}
	}
	h := HooksFromGrid(ref)
	g := sweep.Grid{Overrides: []sweep.Override{{Name: "tweak"}}}
	if err := h("", &g); err != nil {
		t.Fatal(err)
	}
	if g.Drive == nil {
		t.Fatal("Drive not grafted")
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

// decodeAndPlan is the worker's /shard path short of running anything:
// the request decoder and version check, BuildGrid, then Plan.
func decodeAndPlan(data []byte) (ShardRequest, []sweep.Cell, error) {
	req, err := decodeShardRequest(bytes.NewReader(data))
	if err != nil {
		return ShardRequest{}, nil, err
	}
	g, err := req.BuildGrid()
	if err != nil {
		return ShardRequest{}, nil, err
	}
	plan, err := sweep.Plan(g)
	if err != nil {
		return ShardRequest{}, nil, err
	}
	return req, plan, nil
}

// FuzzShardRequest feeds arbitrary bytes to the worker's /shard decode
// path, with no simulation. It must never panic, and it must allocate no
// more than a budget linear in the request plus one Cell per planned cell:
// a request it refuses costs what its own bytes cost. A request it accepts
// re-encodes to a fixed point: encoding it, decoding that and encoding
// again give identical bytes, and both decodes plan the same cells.
func FuzzShardRequest(f *testing.F) {
	subset := shardRequest(f, sweep.Grid{Scenarios: []string{"dual-base"}, Seeds: sweep.SeedRange(1, 3), Days: 2}, "")
	subset.Indices = []int{2, 0}
	tagged := sweep.Grid{Scenarios: []string{"dual-base"}, Seeds: []int64{-1, 5},
		Stations: []int{3}, Overrides: []sweep.Override{{Name: "tag=1.5"}}}
	for _, req := range []ShardRequest{
		shardRequest(f, specGrid(), ""),
		shardRequest(f, tagged, "disttest/tag"),
		subset,
	} {
		seed, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		if _, _, err := decodeAndPlan(seed); err != nil {
			f.Fatalf("seed %s refused: %v", seed, err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req, plan, err := decodeAndPlan(data)
		runtime.ReadMemStats(&after)
		budget := 64*uint64(len(data)) + 64<<10 + uint64(len(plan))*uint64(unsafe.Sizeof(sweep.Cell{}))
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > budget {
			t.Fatalf("%d-byte request planning %d cells allocated %d bytes, budget %d", len(data), len(plan), alloc, budget)
		}
		if err != nil {
			return
		}
		// The gate is sweep.Plan alone: every (scenario, stations, probes)
		// point of an accepted plan must build, at the fleet size it
		// names. Fleets over 64 stations are skipped to keep the fuzzer
		// fast.
		type point struct {
			scenario         string
			stations, probes int
		}
		built := map[point]bool{}
		for _, c := range plan {
			pt := point{c.Scenario, c.Stations, c.Probes}
			if pt.stations > 64 || built[pt] {
				continue
			}
			built[pt] = true
			run := scenario.Run{Scenario: c.Scenario, Params: scenario.Params{Seed: c.Seed, Stations: c.Stations, Probes: c.Probes}}
			top, _, err := run.Topology()
			if err != nil {
				t.Fatalf("plan accepted cell %s, which does not build: %v", c.Label(), err)
			}
			if c.Stations != 0 && len(top.Stations) != c.Stations {
				t.Fatalf("plan accepted cell %s, which builds %d stations", c.Label(), len(top.Stations))
			}
		}
		first, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		again, replan, err := decodeAndPlan(first)
		if err != nil {
			t.Fatalf("re-encoded request refused: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not a fixed point:\n--- first\n%s\n--- second\n%s", first, second)
		}
		if !reflect.DeepEqual(plan, replan) {
			t.Fatalf("re-encoded request plans differently:\n%v\n%v", plan, replan)
		}
	})
}
