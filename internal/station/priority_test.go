package station

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/power"
	"repro/internal/probe"
)

func TestConductivitySpikeEvaluator(t *testing.T) {
	e := NewConductivitySpikeEvaluator()
	quiet := []probe.Reading{{ConductivityUS: 1.2}, {ConductivityUS: 2.0}}
	if p := e.Evaluate(quiet); p >= ForceCommsThreshold {
		t.Fatalf("quiet readings scored %v", p)
	}
	spike := append(quiet, probe.Reading{ConductivityUS: 12.5})
	if p := e.Evaluate(spike); p < ForceCommsThreshold {
		t.Fatalf("spike scored only %v", p)
	}
}

func TestEvaluatorEmptyReadings(t *testing.T) {
	if p := NewConductivitySpikeEvaluator().Evaluate(nil); p != 0 {
		t.Fatalf("no readings scored %v", p)
	}
}

// spikeEvaluator forces full priority unconditionally (test double).
type spikeEvaluator struct{}

func (spikeEvaluator) Evaluate(rs []probe.Reading) float64 {
	if len(rs) == 0 {
		return 0
	}
	return 1
}

// The §VII extension end to end: a station whose battery only allows
// state 0 still gets high-priority probe data out the same day.
func TestPriorityForcesCommsInState0(t *testing.T) {
	run := func(withPriority bool) (forced bool, uploaded int64) {
		cfg := Config{Role: RoleBase}
		if withPriority {
			cfg.Priority = spikeEvaluator{}
		}
		r := newRig(t, rigOpts{
			seed:     21,
			soc:      0.02, // deep discharge: local state 0
			chargers: []energy.Charger{},
			probes:   1,
			cfg:      cfg,
		})
		r.runDays(t, 1)
		rep := r.st.Reports()[0]
		if rep.LocalState != power.State0 {
			t.Fatalf("local state %v at 2%% charge with no chargers; the test needs state 0", rep.LocalState)
		}
		return rep.ForcedComms, rep.UploadedBytes
	}

	forced, uploaded := run(true)
	if !forced {
		t.Fatal("priority evaluator did not force comms in state 0")
	}
	if uploaded == 0 {
		t.Fatal("forced session uploaded nothing")
	}
	forced, uploaded = run(false)
	if forced || uploaded != 0 {
		t.Fatalf("as-deployed state-0 day communicated anyway (forced=%v sent=%d)", forced, uploaded)
	}
}

// In any state above 0 the normal session runs; priority is recorded but
// never forces anything extra.
func TestPriorityRecordedButNotForcedAboveState0(t *testing.T) {
	cfg := Config{Role: RoleBase, Priority: spikeEvaluator{}}
	r := newRig(t, rigOpts{probes: 1, cfg: cfg})
	r.runDays(t, 1)
	rep := r.st.Reports()[0]
	if rep.LocalState == power.State0 {
		t.Fatal("local state 0 at 95% charge; the test needs a state above 0")
	}
	if rep.priority != 1 {
		t.Fatalf("priority not recorded: %v", rep.priority)
	}
	if rep.ForcedComms {
		t.Fatal("forced-comms flag set on a normal day")
	}
}

// The forced session must be minimal: it never drains dGPS files.
func TestForcedCommsSkipsGPSDrain(t *testing.T) {
	cfg := Config{Role: RoleBase, Priority: spikeEvaluator{}}
	r := newRig(t, rigOpts{
		seed:     21,
		soc:      0.02,
		chargers: []energy.Charger{},
		probes:   1,
		cfg:      cfg,
	})
	r.st.Node().GPS.InjectBacklog(5)
	r.runDays(t, 1)
	rep := r.st.Reports()[0]
	if rep.LocalState != power.State0 {
		t.Fatalf("local state %v at 2%% charge with no chargers; the test needs state 0", rep.LocalState)
	}
	if rep.GPSFilesDrained != 0 {
		t.Fatal("forced marginal-power session drained dGPS files")
	}
}
