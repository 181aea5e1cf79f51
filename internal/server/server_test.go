package server

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/power"
)

var t0 = time.Date(2009, 9, 22, 12, 0, 0, 0, time.UTC)

func TestOverrideIsMinOfStations(t *testing.T) {
	s := New()
	s.UploadState("base", power.State3, t0)
	s.UploadState("ref", power.State2, t0.Add(time.Minute))
	if got := s.OverrideFor("base"); got != power.State2 {
		t.Fatalf("override %v, want min(3,2)=2", got)
	}
	if got := s.OverrideFor("ref"); got != power.State2 {
		t.Fatalf("override for ref %v, want 2", got)
	}
}

func TestOverrideDefaultsToState3(t *testing.T) {
	s := New()
	if got := s.OverrideFor("base"); got != power.State3 {
		t.Fatalf("override with no data %v, want 3", got)
	}
}

func TestManualOverride(t *testing.T) {
	s := New()
	s.UploadState("base", power.State3, t0)
	s.UploadState("ref", power.State3, t0)
	s.SetManualOverride("base", power.State2)
	if got := s.OverrideFor("base"); got != power.State2 {
		t.Fatalf("manual override ignored: %v", got)
	}
	// Manual override is per-station.
	if got := s.OverrideFor("ref"); got != power.State3 {
		t.Fatalf("ref saw base's manual override: %v", got)
	}
	s.ClearManualOverride("base")
	if got := s.OverrideFor("base"); got != power.State3 {
		t.Fatalf("cleared override still applied: %v", got)
	}
}

func TestUploadDataAccumulates(t *testing.T) {
	s := New()
	s.UploadData("base", 1000)
	s.UploadData("base", 500)
	r, ok := s.Station("base")
	if !ok || r.BytesReceived != 1500 || r.Uploads != 2 {
		t.Fatalf("record %+v", r)
	}
}

func TestSpecialsFIFOAndPop(t *testing.T) {
	s := New()
	s.PushSpecial("base", "echo one")
	s.PushSpecial("base", "echo two")
	if len(s.specials["base"]) != 2 {
		t.Fatal("pending count wrong")
	}
	sp, ok := s.FetchSpecial("base")
	if !ok || sp.Script != "echo one" {
		t.Fatalf("first special %+v", sp)
	}
	sp, ok = s.FetchSpecial("base")
	if !ok || sp.Script != "echo two" {
		t.Fatalf("second special %+v", sp)
	}
	if _, ok := s.FetchSpecial("base"); ok {
		t.Fatal("third fetch returned a special")
	}
}

func TestSpecialsPerStation(t *testing.T) {
	s := New()
	s.PushSpecial("base", "x")
	if _, ok := s.FetchSpecial("ref"); ok {
		t.Fatal("ref received base's special")
	}
}

func TestMD5ReportsRecorded(t *testing.T) {
	s := New()
	s.ReportMD5("base", "probe-fetcher", "abc123", t0)
	reps := s.MD5Reports()
	if len(reps) != 1 || reps[0].Sum != "abc123" || reps[0].Artifact != "probe-fetcher" {
		t.Fatalf("reports %+v", reps)
	}
}

func TestSpecialOutputDelayedPath(t *testing.T) {
	s := New()
	s.ReportSpecialOutput(SpecialOutput{Output: "ok",
		ExecutedAt: t0, ReceivedAt: t0.Add(24 * time.Hour)})
	outs := s.SpecialOutputs()
	if len(outs) != 1 {
		t.Fatal("output not recorded")
	}
	if lag := outs[0].ReceivedAt.Sub(outs[0].ExecutedAt); lag != 24*time.Hour {
		t.Fatalf("lag %v", lag)
	}
}

func TestStationsSorted(t *testing.T) {
	s := New()
	s.UploadState("ref", power.State2, t0)
	s.UploadState("base", power.State3, t0)
	all := s.Stations()
	if len(all) != 2 || all[0].Name != "base" || all[1].Name != "ref" {
		t.Fatalf("stations %+v", all)
	}
}

// TestOverrideMatchesBruteForceMin replays random state uploads (some at
// the zero time, many re-uploads) and manual overrides, and after every
// step checks OverrideFor against the min-rule computed from scratch over
// Stations(): the minimum state of every station that has uploaded one at
// a non-zero time, and the requester's manual override.
func TestOverrideMatchesBruteForceMin(t *testing.T) {
	names := []string{"base", "ref", "s2", "s3", "s4"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		manual := map[string]power.State{}
		at := t0
		for step := 0; step < 300; step++ {
			name := names[rng.Intn(len(names))]
			st := power.State(rng.Intn(4))
			at = at.Add(time.Minute)
			switch rng.Intn(6) {
			case 0:
				s.UploadState(name, st, time.Time{})
			case 1:
				s.SetManualOverride(name, st)
				manual[name] = st
			case 2:
				s.ClearManualOverride(name)
				delete(manual, name)
			default:
				s.UploadState(name, st, at)
			}
			asker := names[rng.Intn(len(names))]
			want := power.State3
			for _, r := range s.Stations() {
				if !r.lastStateAt.IsZero() {
					want = power.MinState(want, r.LastState)
				}
			}
			if m, ok := manual[asker]; ok {
				want = power.MinState(want, m)
			}
			if got := s.OverrideFor(asker); got != want {
				t.Fatalf("seed %d step %d: OverrideFor(%s) = %v, brute-force min %v (stations %+v, manual %v)",
					seed, step, asker, got, want, s.Stations(), manual)
			}
		}
	}
}

func TestUploadInvalidStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for an out-of-range state")
		}
	}()
	New().UploadState("base", power.State3+1, t0)
}
