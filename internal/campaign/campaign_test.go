package campaign

import (
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

// SyncLagDrive overrides and reads the stations "base" and "ref" by name.
// A scenario without them is an error before anything runs, not a
// reading of whichever stations happen to come first.
func TestSyncLagDriveNeedsBaseAndRef(t *testing.T) {
	d, err := scenario.Build("dual-base", scenario.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := d.Sim.Now()
	_, _, err = SyncLagDrive(sweep.Cell{Scenario: "dual-base", Override: SyncBeforeWindow}, d)
	if err == nil || !strings.Contains(err.Error(), `"base"`) {
		t.Fatalf("dual-base has no station \"base\"; err = %v", err)
	}
	if !d.Sim.Now().Equal(start) {
		t.Fatalf("the refused drive advanced the clock to %v", d.Sim.Now())
	}

	d, err = scenario.Build("as-deployed-2008", scenario.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := SyncLagDrive(sweep.Cell{Scenario: "as-deployed-2008", Override: SyncBeforeWindow}, d)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	if got := strings.Join(names, ","); got != "base-lag-days,ref-lag-days,failed-sessions" {
		t.Fatalf("metrics %s", got)
	}
}
