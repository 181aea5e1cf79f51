package deploy

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/power"
	"repro/internal/station"
)

// asDeployed builds the paper's pair and returns it with its base and
// reference stations.
func asDeployed(t *testing.T, seed int64) (d *Deployment, base, ref *station.Station) {
	t.Helper()
	d, err := Build(AsDeployed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return d, mustStation(t, d, "base"), mustStation(t, d, "ref")
}

// mustStation returns the named station or fails the test.
func mustStation(t *testing.T, d *Deployment, name string) *station.Station {
	t.Helper()
	st, ok := d.Station(name)
	if !ok {
		t.Fatalf("no station %q (have %v)", name, d.StationNames())
	}
	return st
}

func TestThirtyDayDeployment(t *testing.T) {
	d, base, ref := asDeployed(t, 42)
	if err := d.RunDays(30); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*station.Station{"base": base, "ref": ref} {
		s := st.Stats()
		if s.Runs != 30 {
			t.Fatalf("%s ran %d days of 30", name, s.Runs)
		}
		if s.CompletedRuns < 25 {
			t.Fatalf("%s completed only %d/30 runs", name, s.CompletedRuns)
		}
	}
	// Southampton heard from both stations.
	for _, name := range []string{"base", "ref"} {
		rec, ok := d.Server.Station(name)
		if !ok {
			t.Fatalf("server never heard from %s", name)
		}
		if rec.BytesReceived < 1<<20 {
			t.Fatalf("server received only %d bytes from %s in a month", rec.BytesReceived, name)
		}
	}
	// Probe data flowed.
	got := 0
	for _, r := range base.Reports() {
		got += r.ProbeReadings
	}
	if got < 7*24*25 {
		t.Fatalf("only %d probe readings fetched in a month of 7 hourly probes", got)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (station.Stats, station.Stats, int64) {
		d, base, ref := asDeployed(t, 7)
		if err := d.RunDays(45); err != nil {
			t.Fatal(err)
		}
		rec, _ := d.Server.Station("base")
		return base.Stats(), ref.Stats(), rec.BytesReceived
	}
	b1, r1, n1 := run()
	b2, r2, n2 := run()
	if b1 != b2 || r1 != r2 || n1 != n2 {
		t.Fatalf("same seed diverged:\n%+v vs %+v\n%+v vs %+v\n%d vs %d", b1, b2, r1, r2, n1, n2)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	run := func(seed int64) int64 {
		d, _, _ := asDeployed(t, seed)
		if err := d.RunDays(45); err != nil {
			t.Fatal(err)
		}
		rec, _ := d.Server.Station("base")
		return rec.BytesReceived
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical upload volumes (suspicious)")
	}
}

// The §III behaviour observed in the field: the server's min-rule holds one
// station down when the other reports a lower state.
func TestServerMinRuleSynchronisesStations(t *testing.T) {
	d, base, _ := asDeployed(t, 42)
	if err := d.RunDays(90); err != nil { // into December
		t.Fatal(err)
	}
	held := 0
	for _, r := range base.Reports() {
		if r.OverrideFetched && r.Override < r.LocalState && r.Effective == r.Override {
			held++
		}
	}
	if held == 0 {
		t.Fatal("no held-down day in 90 days: the min-rule never held the base below its local state")
	}
}

// X5: the state sync lag is at most one day: an override uploaded by one
// station today is seen by the other station today or tomorrow.
func TestOverrideSyncLagAtMostOneDay(t *testing.T) {
	d, base, ref := asDeployed(t, 42)
	if err := d.RunDays(10); err != nil {
		t.Fatal(err)
	}
	d.Server.SetManualOverride("base", power.State1)
	d.Server.SetManualOverride("ref", power.State1)
	if err := d.RunDays(3); err != nil {
		t.Fatal(err)
	}
	// Within two windows both stations must be running state 1.
	if base.State() != power.State1 && base.Stats().CommsFailures < 2 {
		t.Fatalf("base still %v two days after the manual override", base.State())
	}
	if ref.State() != power.State1 && ref.Stats().CommsFailures < 2 {
		t.Fatalf("ref still %v two days after the manual override", ref.State())
	}
}

func TestWinterReducesActivity(t *testing.T) {
	d, base, ref := asDeployed(t, 11)
	if err := d.RunDays(200); err != nil { // Sept 2008 → mid-March 2009
		t.Fatal(err)
	}
	// At some point in winter a station must have run below state 3: winter
	// charging cannot hold two stations at full duty.
	below := 0
	for _, st := range []*station.Station{base, ref} {
		for _, r := range st.Reports() {
			if r.Effective < power.State3 {
				below++
			}
		}
	}
	if below == 0 {
		t.Fatal("no station ever left state 3 through an Icelandic winter")
	}
}

func TestProbeAttritionOverAYear(t *testing.T) {
	d, _, _ := asDeployed(t, 3)
	if err := d.RunDays(365); err != nil {
		t.Fatal(err)
	}
	alive := 0
	for _, p := range d.probesBy["base"] {
		if p.Alive(d.Sim.Now()) {
			alive++
		}
	}
	// §V: 4/7 after one year. Exponential draws vary by seed; accept 2-6.
	if alive < 2 || alive > 6 {
		t.Fatalf("%d/7 probes alive after a year; paper saw 4/7", alive)
	}
}

func TestYearLongDeploymentSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("year-long simulation")
	}
	d, base, _ := asDeployed(t, 42)
	if err := d.RunDays(400); err != nil {
		t.Fatal(err)
	}
	// The base station must still be cycling daily at the end.
	reps := base.Reports()
	if len(reps) < 300 {
		t.Fatalf("only %d daily runs in 400 days", len(reps))
	}
	last := reps[len(reps)-1]
	if d.Sim.Now().Sub(last.Date) > 72*time.Hour {
		t.Fatalf("base station silent since %v", last.Date)
	}
	// And the paper's headline: data kept flowing to Southampton.
	rec, _ := d.Server.Station("base")
	if rec.BytesReceived < 50<<20 {
		t.Fatalf("only %.1f MB reached Southampton in 400 days", float64(rec.BytesReceived)/(1<<20))
	}
}

// The paper's pair: "base" carries the seven-probe cohort and the one
// radio cell, "ref" has neither, and a zero Start means DefaultStart.
// TestMainsBlackoutKeepsOnlySolar checks the hardware fit the mains
// blackout fault hands to the named station's bus: the reference fit less
// its café mains charger. Other stations keep their fit.
func TestMainsBlackoutKeepsOnlySolar(t *testing.T) {
	faults := []Fault{{Station: "ref", Kind: FaultMainsBlackout}}
	full := core.ReferenceStationConfig("ref").Chargers
	got := nodeConfigFor(ReferenceSpec("ref"), faults).Chargers
	if len(got) != len(full)-1 {
		t.Fatalf("blackout reference has %d chargers, want %d", len(got), len(full)-1)
	}
	for _, ch := range got {
		if _, mains := ch.(*energy.MainsCharger); mains {
			t.Fatal("blackout reference kept its mains charger")
		}
	}
	if other := nodeConfigFor(ReferenceSpec("ref2"), faults).Chargers; len(other) != len(full) {
		t.Fatalf("untargeted reference has %d chargers, want %d", len(other), len(full))
	}
}

func TestAsDeployedDefaults(t *testing.T) {
	d, _, _ := asDeployed(t, 9)
	if got := d.StationNames(); !reflect.DeepEqual(got, []string{"base", "ref"}) {
		t.Fatalf("station names %v", got)
	}
	if len(d.probesBy["base"]) != 7 || d.probesBy["ref"] != nil {
		t.Fatalf("cohort wrong: %d base, %d ref", len(d.probesBy["base"]), len(d.probesBy["ref"]))
	}
	if !d.Sim.Now().Equal(DefaultStart) {
		t.Fatalf("start %v", d.Sim.Now())
	}
}
