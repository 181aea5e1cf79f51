package protocol

import (
	"testing"
	"time"

	"repro/internal/comms"
	"repro/internal/probe"
)

// These tests pin the fetch path's allocation discipline: every base
// station fetches every live probe once a simulated day, so on a warmed
// State a session over a one-day backlog must not touch the heap. The
// fetchers read the probe through its pending view, build wanted into the
// State's scratch and return Got in the State's buffer.
//
// The same set carries //glacvet:hotpath in protocol.go and ackfetch.go
// (NackFetcher.Fetch, NackFetcher.stream, AckFetcher.Fetch, markComplete,
// State.begin, State.receive): `make lint` rejects the allocation patterns
// statically, these pins catch whatever slips past the lint at runtime.
// Keep the two sets in sync.

type fetchFunc func(now time.Time, ch *comms.ProbeChannel, pr *probe.Probe,
	budget time.Duration, st *State) Result

// assertDailyFetchAllocFree warms st over a few days of one-day backlogs,
// then pins a day of sampling plus one fetch session at zero allocations.
func assertDailyFetchAllocFree(t *testing.T, fetch fetchFunc) {
	t.Helper()
	sim, ch, pr := winterRig(t, 5, 24)
	st := NewState()
	var res Result
	day := func() {
		if err := sim.RunFor(24 * time.Hour); err != nil {
			t.Fatal(err)
		}
		res = fetch(sim.Now(), ch, pr, 40*time.Minute, st)
	}
	for i := 0; i < 3; i++ {
		day()
	}
	avg := testing.AllocsPerRun(20, day)
	if avg != 0 {
		t.Fatalf("a day's fetch on a warmed State allocates %.1f objects/op, want 0", avg)
	}
	if !res.Complete || len(res.Got) != 24 {
		t.Fatalf("steady-state session got %d readings, complete=%v; want a clean 24", len(res.Got), res.Complete)
	}
}

func TestNackFetchAllocFree(t *testing.T) {
	assertDailyFetchAllocFree(t, NewNackFetcher(FixedNackConfig()).Fetch)
}

func TestAckFetchAllocFree(t *testing.T) {
	assertDailyFetchAllocFree(t, NewAckFetcher().Fetch)
}

// Got shares the State's buffer: it is valid until the next Fetch with the
// same State, and the probe's store never aliases it.
func TestGotOutlivesMarkComplete(t *testing.T) {
	sim, ch, pr := winterRig(t, 5, 24)
	st := NewState()
	res := NewNackFetcher(FixedNackConfig()).Fetch(sim.Now(), ch, pr, 40*time.Minute, st)
	if !res.Complete || len(res.Got) != 24 {
		t.Fatalf("got %d, complete=%v", len(res.Got), res.Complete)
	}
	if err := sim.RunFor(5 * time.Hour); err != nil { // the probe reuses its store
		t.Fatal(err)
	}
	for i, r := range res.Got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("Got[%d].Seq = %d after the probe sampled on, want %d", i, r.Seq, i+1)
		}
	}
}
