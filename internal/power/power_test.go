package power

import (
	"testing"
	"testing/quick"
)

// Table II, row by row.
func TestTableIIThresholds(t *testing.T) {
	cases := []struct {
		volts float64
		want  State
	}{
		{13.2, State3},
		{12.5, State3},
		{12.49, State2},
		{12.0, State2},
		{11.99, State1},
		{11.5, State1},
		{11.49, State0},
		{10.0, State0},
	}
	for _, c := range cases {
		if got := StateForVoltage(c.volts); got != c.want {
			t.Fatalf("StateForVoltage(%v) = %v, want %v", c.volts, got, c.want)
		}
	}
}

func TestTableIIPlans(t *testing.T) {
	cases := []struct {
		st     State
		gpsPer int
		gprs   bool
	}{
		{State3, 12, true},
		{State2, 1, true},
		{State1, 0, true},
		{State0, 0, false},
	}
	for _, c := range cases {
		p := PlanFor(c.st)
		if p.GPSReadingsPerDay != c.gpsPer || p.GPRS != c.gprs {
			t.Fatalf("PlanFor(%v) = %+v, want gps=%d gprs=%v", c.st, p, c.gpsPer, c.gprs)
		}
		// Probe jobs and sensing are unconditional in every state.
		if !p.ProbeJobs || !p.SensorReadings {
			t.Fatalf("PlanFor(%v) disabled probe jobs or sensing: %+v", c.st, p)
		}
	}
}

func TestThresholdAccessor(t *testing.T) {
	if Threshold(State3) != 12.5 || Threshold(State2) != 12.0 || Threshold(State1) != 11.5 || Threshold(State0) != 0 {
		t.Fatal("Table II thresholds wrong")
	}
}

func TestDailyAverage(t *testing.T) {
	avg, ok := DailyAverage([]float64{12.0, 13.0, 12.5})
	if !ok || avg != 12.5 {
		t.Fatalf("avg %v ok=%v", avg, ok)
	}
	if _, ok := DailyAverage(nil); ok {
		t.Fatal("empty average reported ok")
	}
}

// "The server ... returns the lowest one to the client" combined with the
// station clamps.
func TestApplyOverride(t *testing.T) {
	cases := []struct {
		local, override, want State
		desc                  string
	}{
		{State3, State2, State2, "server lowers"},
		{State2, State3, State2, "cannot exceed battery"},
		{State3, State0, State1, "cannot be forced out of comms"},
		{State1, State0, State1, "state0 override clamps to 1"},
		{State0, State3, State0, "local zero wins (battery is dire)"},
		{State2, State2, State2, "agreement"},
		{State3, State(-1), State3, "invalid override ignored"},
		{State2, State(7), State2, "invalid override ignored high"},
	}
	for _, c := range cases {
		if got := ApplyOverride(c.local, c.override); got != c.want {
			t.Fatalf("%s: ApplyOverride(%v,%v) = %v, want %v", c.desc, c.local, c.override, got, c.want)
		}
	}
}

func TestEffectiveFallsBackToLocal(t *testing.T) {
	// "If the fetching of the over-ride state from the server fails ... the
	// system will just rely on its local state."
	if got := Effective(State3, State1, false); got != State3 {
		t.Fatalf("comms-failure fallback = %v, want local State3", got)
	}
	if got := Effective(State3, State1, true); got != State1 {
		t.Fatalf("with server = %v, want State1", got)
	}
}

func TestMinState(t *testing.T) {
	if MinState(State3, State1) != State1 || MinState(State0, State2) != State0 {
		t.Fatal("MinState wrong")
	}
}

func TestStateString(t *testing.T) {
	if State3.String() != "state3" || State0.String() != "state0" {
		t.Fatal("State.String wrong")
	}
}

func TestStateValid(t *testing.T) {
	for s := State0; s <= State3; s++ {
		if !s.Valid() {
			t.Fatalf("%v invalid", s)
		}
	}
	if State(-1).Valid() || State(4).Valid() {
		t.Fatal("out-of-range state valid")
	}
}

// Property: the effective state never exceeds the local state, and is
// never 0 unless the local state is 0.
func TestPropertyOverrideClamps(t *testing.T) {
	f := func(l, o int8) bool {
		local := State(int(l%4+4) % 4)
		override := State(int(o%4+4) % 4)
		eff := ApplyOverride(local, override)
		if eff > local {
			return false
		}
		if eff == State0 && local != State0 {
			return false
		}
		return eff.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: StateForVoltage is monotone in voltage.
func TestPropertyStateMonotoneInVoltage(t *testing.T) {
	f := func(a, b uint16) bool {
		va := 10 + float64(a%400)/100 // 10.00-13.99
		vb := 10 + float64(b%400)/100
		if va > vb {
			va, vb = vb, va
		}
		return StateForVoltage(va) <= StateForVoltage(vb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The Fig 5 scenario: a healthy battery averaged over a day lands in
// state 3; a sagging one in state 2; the override holds it down.
func TestFig5StateSelection(t *testing.T) {
	day := func(base float64) []float64 {
		var out []float64
		for i := 0; i < 48; i++ {
			// diurnal swing ±0.3 V around base
			v := base + 0.3*float64(i%24-12)/12
			out = append(out, v)
		}
		return out
	}
	healthy, _ := DailyAverage(day(12.8))
	sagging, _ := DailyAverage(day(12.2))
	if StateForVoltage(healthy) != State3 {
		t.Fatalf("healthy day avg %v -> %v, want state3", healthy, StateForVoltage(healthy))
	}
	if StateForVoltage(sagging) != State2 {
		t.Fatalf("sagging day avg %v -> %v, want state2", sagging, StateForVoltage(sagging))
	}
	// "Although initially the voltage was high enough for the system to be
	// in state 3 it was being held in state 2 by the remote override."
	if got := ApplyOverride(State3, State2); got != State2 {
		t.Fatalf("override hold = %v, want state2", got)
	}
}
