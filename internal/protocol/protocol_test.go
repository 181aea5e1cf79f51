package protocol

import (
	"errors"
	"testing"
	"time"

	"repro/internal/comms"
	"repro/internal/probe"
	"repro/internal/simenv"
	"repro/internal/weather"
)

// summerRig builds a probe that has accumulated ~3000 readings over months
// offline and a mid-July channel at the paper's ~13% summer loss.
func summerRig(t *testing.T, seed int64) (*simenv.Simulator, *comms.ProbeChannel, *probe.Probe) {
	t.Helper()
	wx := weather.New(seed)
	sim := simenv.NewAt(seed, time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC))
	cfg := probe.DefaultConfig(21)
	cfg.MeanLifetime = 100 * 365 * 24 * time.Hour
	pr := probe.New(sim, wx, cfg)
	if err := sim.RunFor(125 * 24 * time.Hour); err != nil { // ~3000 hourly readings
		t.Fatal(err)
	}
	ch := comms.NewProbeChannel(sim, wx)
	return sim, ch, pr
}

func winterRig(t *testing.T, seed int64, hours int) (*simenv.Simulator, *comms.ProbeChannel, *probe.Probe) {
	t.Helper()
	wx := weather.New(seed)
	sim := simenv.NewAt(seed, time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC))
	cfg := probe.DefaultConfig(24)
	cfg.MeanLifetime = 100 * 365 * 24 * time.Hour
	pr := probe.New(sim, wx, cfg)
	if err := sim.RunFor(time.Duration(hours) * time.Hour); err != nil {
		t.Fatal(err)
	}
	ch := comms.NewProbeChannel(sim, wx)
	return sim, ch, pr
}

func TestNackFetchCleanWinterDay(t *testing.T) {
	sim, ch, pr := winterRig(t, 1, 24)
	f := NewNackFetcher(DefaultNackConfig())
	res := f.Fetch(sim.Now(), ch, pr, 2*time.Hour, nil)
	if res.Err != nil {
		t.Fatalf("winter fetch failed: %v", res.Err)
	}
	if !res.Complete {
		t.Fatal("winter fetch of 24 readings incomplete")
	}
	if len(res.Got) != 24 {
		t.Fatalf("got %d readings, want 24", len(res.Got))
	}
	if pr.PendingCount() != 0 {
		t.Fatalf("probe still has %d pending after complete fetch", pr.PendingCount())
	}
}

func TestNackFetchEmptyPendingIsComplete(t *testing.T) {
	sim, ch, pr := winterRig(t, 1, 24)
	f := NewNackFetcher(DefaultNackConfig())
	_ = f.Fetch(sim.Now(), ch, pr, 2*time.Hour, nil)
	res := f.Fetch(sim.Now(), ch, pr, 2*time.Hour, nil)
	if !res.Complete || len(res.Got) != 0 || res.AirBytes != 0 {
		t.Fatalf("empty fetch: %+v", res)
	}
}

// §V: 3000 summer readings lose ~400 first pass; the deployed 256-NACK
// limit then aborts the session.
func TestSummerBulkFetchHitsDeployedNackBug(t *testing.T) {
	sim, ch, pr := summerRig(t, 7)
	if pr.PendingCount() < 2900 {
		t.Fatalf("rig produced only %d readings", pr.PendingCount())
	}
	held, oldest := pr.PendingCount(), pr.PendingView()[0].Seq
	f := NewNackFetcher(DefaultNackConfig())
	res := f.Fetch(sim.Now(), ch, pr, 2*time.Hour, nil)
	if res.MissedFirstPass < 250 || res.MissedFirstPass > 560 {
		t.Fatalf("first-pass misses %d, paper says ~400 of 3000", res.MissedFirstPass)
	}
	if !errors.Is(res.Err, ErrNackOverflow) {
		t.Fatalf("expected the deployed NACK-overflow failure, got %v", res.Err)
	}
	if res.Complete {
		t.Fatal("session complete despite overflow abort")
	}
	// "Fortunately the task was not marked as complete in the probes": a
	// completion would have released the confirmed readings.
	if pr.PendingCount() != held || pr.PendingView()[0].Seq != oldest {
		t.Fatal("probe marked complete despite aborted session")
	}
}

// "So many missing readings were obtained in subsequent days": repeated
// daily sessions converge even with the buggy config.
func TestSummerFetchConvergesOverDays(t *testing.T) {
	sim, ch, pr := summerRig(t, 8)
	f := NewNackFetcher(DefaultNackConfig())
	st := NewState() // base-station storage persists across days
	total := 0
	days := 0
	for ; days < 10; days++ {
		res := f.Fetch(sim.Now(), ch, pr, 2*time.Hour, st)
		total += len(res.Got)
		if res.Complete {
			break
		}
		if err := sim.RunFor(24 * time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if pr.PendingCount() != 0 {
		t.Fatalf("still %d pending after %d days", pr.PendingCount(), days+1)
	}
	if days == 0 {
		t.Fatal("expected multi-day convergence under the buggy config")
	}
}

func TestFixedConfigCompletesInOneSession(t *testing.T) {
	sim, ch, pr := summerRig(t, 9)
	f := NewNackFetcher(FixedNackConfig())
	res := f.Fetch(sim.Now(), ch, pr, 2*time.Hour, nil)
	if res.Err != nil {
		t.Fatalf("fixed-config fetch failed: %v", res.Err)
	}
	if !res.Complete {
		t.Fatal("fixed-config fetch incomplete")
	}
	if res.Nacked <= 256 {
		t.Fatalf("only %d nacks; scenario did not exceed the old limit", res.Nacked)
	}
}

func TestBudgetExhaustionPreservesData(t *testing.T) {
	sim, ch, pr := summerRig(t, 10)
	before := pr.PendingCount()
	f := NewNackFetcher(FixedNackConfig())
	res := f.Fetch(sim.Now(), ch, pr, 2*time.Minute, nil) // far too small
	if !errors.Is(res.Err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", res.Err)
	}
	if res.Elapsed > 2*time.Minute {
		t.Fatalf("elapsed %v exceeded budget", res.Elapsed)
	}
	if pr.PendingCount() != before {
		t.Fatal("probe discarded data on an incomplete session")
	}
}

func TestFullRefetchOnHeavyLoss(t *testing.T) {
	// A one-reading session that loses its only packet has lost all of its
	// first pass, over the full-refetch fraction: the fetcher must stream
	// again before it falls back to individual NACKs. The seeds are walked
	// until the mid-July channel drops that packet.
	for seed := int64(1); seed <= 100; seed++ {
		wx := weather.New(seed)
		sim := simenv.NewAt(seed, time.Date(2009, 7, 15, 0, 0, 0, 0, time.UTC))
		cfg := probe.DefaultConfig(25)
		cfg.MeanLifetime = 100 * 365 * 24 * time.Hour
		pr := probe.New(sim, wx, cfg)
		if err := sim.RunFor(time.Hour); err != nil {
			t.Fatal(err)
		}
		ch := comms.NewProbeChannel(sim, wx)
		res := NewNackFetcher(FixedNackConfig()).Fetch(sim.Now(), ch, pr, 4*time.Hour, nil)
		if res.MissedFirstPass == 0 {
			continue
		}
		if res.fullRefetches == 0 {
			t.Fatalf("seed %d: no full refetch after losing the whole first pass (%d/%d)",
				seed, res.MissedFirstPass, pr.PendingCount())
		}
		return
	}
	t.Fatal("no seed lost the session's only packet")
}

func TestAckBaselineCompletes(t *testing.T) {
	sim, ch, pr := winterRig(t, 12, 48)
	f := NewAckFetcher()
	res := f.Fetch(sim.Now(), ch, pr, 2*time.Hour, nil)
	if !res.Complete {
		t.Fatalf("ack baseline incomplete: %+v err=%v", len(res.Got), res.Err)
	}
	if len(res.Got) != 48 {
		t.Fatalf("got %d, want 48", len(res.Got))
	}
}

// The headline protocol comparison: on the same workload the ack-less
// fetcher should finish faster and move fewer bytes than stop-and-wait.
func TestNackBeatsAckOnTimeAndBytes(t *testing.T) {
	run := func(useNack bool) Result {
		sim, ch, pr := summerRig(t, 13)
		if useNack {
			return NewNackFetcher(FixedNackConfig()).Fetch(sim.Now(), ch, pr, 6*time.Hour, nil)
		}
		return NewAckFetcher().Fetch(sim.Now(), ch, pr, 6*time.Hour, nil)
	}
	nack, ack := run(true), run(false)
	if !nack.Complete || !ack.Complete {
		t.Fatalf("fetches incomplete: nack=%v ack=%v", nack.Err, ack.Err)
	}
	if nack.Elapsed >= ack.Elapsed {
		t.Fatalf("nack %v not faster than ack %v", nack.Elapsed, ack.Elapsed)
	}
	if nack.AirBytes >= ack.AirBytes {
		t.Fatalf("nack %dB not lighter than ack %dB", nack.AirBytes, ack.AirBytes)
	}
	ratio := float64(ack.Elapsed) / float64(nack.Elapsed)
	if ratio < 1.3 {
		t.Fatalf("speedup only %.2fx; expected a clear win for ack-less", ratio)
	}
}

func TestAckFetcherRespectsBudget(t *testing.T) {
	sim, ch, pr := summerRig(t, 14)
	f := NewAckFetcher()
	res := f.Fetch(sim.Now(), ch, pr, 5*time.Minute, nil)
	if !errors.Is(res.Err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", res.Err)
	}
	if res.Elapsed > 5*time.Minute {
		t.Fatalf("elapsed %v over budget", res.Elapsed)
	}
}

func TestResultAccountingConsistent(t *testing.T) {
	sim, ch, pr := winterRig(t, 15, 100)
	f := NewNackFetcher(FixedNackConfig())
	res := f.Fetch(sim.Now(), ch, pr, 2*time.Hour, nil)
	if res.AirBytes <= int64(len(res.Got))*probe.ReadingBytes {
		t.Fatalf("air bytes %d cannot be below payload %d", res.AirBytes, len(res.Got)*probe.ReadingBytes)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time recorded")
	}
}

// Property: a session never yields duplicate sequence numbers and only
// yields readings the probe actually had pending.
func TestPropertyFetchYieldsUniquePendingSeqs(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		sim, ch, pr := winterRig(t, seed, 200)
		pendingSet := map[uint64]bool{}
		for _, r := range pr.PendingView() {
			pendingSet[r.Seq] = true
		}
		res := NewNackFetcher(FixedNackConfig()).Fetch(sim.Now(), ch, pr, 4*time.Hour, nil)
		seen := map[uint64]bool{}
		for _, r := range res.Got {
			if seen[r.Seq] {
				t.Fatalf("seed %d: duplicate seq %d in Got", seed, r.Seq)
			}
			seen[r.Seq] = true
			if !pendingSet[r.Seq] {
				t.Fatalf("seed %d: seq %d was never pending", seed, r.Seq)
			}
		}
	}
}

// Property: across multi-session convergence with shared state, the union
// of all sessions' Got is exactly the original pending set, with no
// duplicates between sessions.
func TestPropertyMultiSessionUnionExact(t *testing.T) {
	sim, ch, pr := summerRig(t, 30)
	want := map[uint64]bool{}
	for _, r := range pr.PendingView() {
		want[r.Seq] = true
	}
	st := NewState()
	got := map[uint64]bool{}
	f := NewNackFetcher(DefaultNackConfig())
	for day := 0; day < 12; day++ {
		res := f.Fetch(sim.Now(), ch, pr, 2*time.Hour, st)
		for _, r := range res.Got {
			if got[r.Seq] {
				t.Fatalf("seq %d delivered twice across sessions", r.Seq)
			}
			got[r.Seq] = true
		}
		if res.Complete {
			break
		}
		if err := sim.RunFor(24 * time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	// Every originally-pending reading must arrive exactly once; readings
	// the probe records during the convergence days may arrive too.
	for seq := range want {
		if !got[seq] {
			t.Fatalf("seq %d never delivered", seq)
		}
	}
}

// The completion mark trims the carried state so it cannot grow without
// bound over a deployment.
func TestStateTrimmedAfterCompletion(t *testing.T) {
	sim, ch, pr := winterRig(t, 31, 100)
	st := NewState()
	res := NewNackFetcher(FixedNackConfig()).Fetch(sim.Now(), ch, pr, 4*time.Hour, st)
	if !res.Complete {
		t.Fatalf("fetch incomplete: %v", res.Err)
	}
	if len(st.have) != 0 {
		t.Fatalf("state still holds %d seqs after completion", len(st.have))
	}
}
