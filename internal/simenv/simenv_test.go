package simenv

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestNowStartsAtEpoch(t *testing.T) {
	s := New(1)
	if !s.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", s.Now(), Epoch)
	}
}

func TestNewAtStartsAtGivenTime(t *testing.T) {
	start := time.Date(2009, 1, 2, 3, 4, 5, 0, time.UTC)
	s := NewAt(7, start)
	if !s.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", s.Now(), start)
	}
}

func TestAfterRunsInOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.After(2*time.Hour, "b", func(time.Time) { order = append(order, 2) })
	s.After(1*time.Hour, "a", func(time.Time) { order = append(order, 1) })
	s.After(3*time.Hour, "c", func(time.Time) { order = append(order, 3) })
	if err := s.RunFor(4 * time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	s := New(1)
	var order []int
	at := s.Now().Add(time.Hour)
	for i := 0; i < 10; i++ {
		i := i
		s.At(at, "e", func(time.Time) { order = append(order, i) })
	}
	if err := s.RunFor(2 * time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO for equal timestamps)", i, v, i)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	s := New(1)
	var got time.Time
	s.After(90*time.Minute, "e", func(now time.Time) { got = now })
	if err := s.RunFor(2 * time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	want := Epoch.Add(90 * time.Minute)
	if !got.Equal(want) {
		t.Fatalf("event ran at %v, want %v", got, want)
	}
}

func TestRunAdvancesClockToHorizonWhenQueueDrains(t *testing.T) {
	s := New(1)
	if err := s.RunFor(24 * time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if !s.Now().Equal(Epoch.Add(24 * time.Hour)) {
		t.Fatalf("Now() = %v, want horizon", s.Now())
	}
}

func TestRunDoesNotExecuteBeyondHorizon(t *testing.T) {
	s := New(1)
	ran := false
	s.After(3*time.Hour, "late", func(time.Time) { ran = true })
	if err := s.RunFor(time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if ran {
		t.Fatal("event beyond horizon executed")
	}
	if err := s.RunFor(3 * time.Hour); err != nil {
		t.Fatalf("second RunFor: %v", err)
	}
	if !ran {
		t.Fatal("event not executed after horizon extended")
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	s := New(1)
	var at time.Time
	s.After(time.Hour, "outer", func(now time.Time) {
		s.At(now.Add(-time.Hour), "past", func(inner time.Time) { at = inner })
	})
	if err := s.RunFor(2 * time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if !at.Equal(Epoch.Add(time.Hour)) {
		t.Fatalf("past event ran at %v, want clamp to %v", at, Epoch.Add(time.Hour))
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	s := New(1)
	ran := false
	id := s.After(time.Hour, "e", func(time.Time) { ran = true })
	s.Cancel(id)
	if err := s.RunFor(2 * time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if ran {
		t.Fatal("cancelled event executed")
	}
}

func TestStopReturnsErrStopped(t *testing.T) {
	s := New(1)
	s.After(time.Minute, "stopper", func(time.Time) { s.Stop() })
	s.After(time.Hour, "later", func(time.Time) { t.Fatal("event after Stop executed") })
	err := s.RunFor(2 * time.Hour)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
}

func TestTickerFiresAtPeriod(t *testing.T) {
	s := New(1)
	var times []time.Time
	s.Every(s.Now().Add(time.Hour), 30*time.Minute, "tick", func(now time.Time) {
		times = append(times, now)
	})
	if err := s.RunFor(3 * time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if len(times) != 5 { // 1:00 1:30 2:00 2:30 3:00
		t.Fatalf("ticker fired %d times, want 5 (%v)", len(times), times)
	}
	for i := 1; i < len(times); i++ {
		if d := times[i].Sub(times[i-1]); d != 30*time.Minute {
			t.Fatalf("tick interval %v, want 30m", d)
		}
	}
}

func TestTickerStopHaltsFiring(t *testing.T) {
	s := New(1)
	var tk *Ticker
	n := 0
	tk = s.Every(s.Now(), time.Hour, "tick", func(time.Time) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	if err := s.RunFor(10 * time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if n != 3 {
		t.Fatalf("ticker fired %d times after Stop at 3", n)
	}
}

// TestJoinSharesOneEntryPerBeat checks Join's contract: members on one
// beat share a queue entry and run in join order, each traced and counted
// as its own event, and a Stop from inside a member halts the run only
// after the whole group.
func TestJoinSharesOneEntryPerBeat(t *testing.T) {
	s := New(1)
	var ran []string
	for _, m := range []string{"a", "b", "c"} {
		s.Join(s.Now().Add(time.Minute), time.Minute, "beat", func(time.Time) {
			ran = append(ran, m)
			if m == "a" && len(ran) == 1 {
				s.Stop()
			}
		})
	}
	if queued(s) != 1 {
		t.Fatalf("three members on one beat hold %d queue entries, want 1", queued(s))
	}
	var traced []string
	s.OnEvent(func(name string, at time.Time) { traced = append(traced, name+"@"+at.Sub(Epoch).String()) })
	if err := s.RunFor(time.Hour); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if got := strings.Join(ran, ""); got != "abc" {
		t.Fatalf("stopped run executed members %q, want the whole group abc", got)
	}
	if err := s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ran, ""); got != "abcabcabc" {
		t.Fatalf("members ran %q, want join order on every beat", got)
	}
	if s.Processed() != 9 || len(traced) != 9 || traced[8] != "beat@3m0s" {
		t.Fatalf("processed %d, traced %v: want 9 events, one per member per beat", s.Processed(), traced)
	}
}

// TestJoinAtAnotherPhaseStartsItsOwnGroup: a member whose first firing is
// not the existing group's next one keeps its own entry (and its own
// place in the queue), and a member due at the group's next firing joins.
func TestJoinAtAnotherPhaseStartsItsOwnGroup(t *testing.T) {
	s := New(1)
	var ran []string
	member := func(m string) EventFunc { return func(time.Time) { ran = append(ran, m) } }
	s.Join(s.Now().Add(2*time.Minute), 2*time.Minute, "beat", member("a"))
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	s.Join(s.Now().Add(2*time.Minute), 2*time.Minute, "beat", member("late")) // 3m: another phase
	s.Join(s.Now().Add(time.Minute), 2*time.Minute, "beat", member("b"))      // 2m: joins a's group
	s.Join(s.Now().Add(time.Minute), time.Minute, "beat", member("fast"))     // another period
	if queued(s) != 3 {
		t.Fatalf("%d queue entries, want 3 groups", queued(s))
	}
	if err := s.RunFor(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// 2m: a b fast; 3m: late fast; 4m: a b fast.
	if got := strings.Join(ran, " "); got != "a b fast late fast a b fast" {
		t.Fatalf("ran %q", got)
	}
}

func TestProcessedCounts(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.After(time.Duration(i)*time.Minute, "e", func(time.Time) {})
	}
	if err := s.RunFor(time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if s.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", s.Processed())
	}
}

func TestOnEventTracer(t *testing.T) {
	s := New(1)
	var names []string
	s.OnEvent(func(name string, _ time.Time) { names = append(names, name) })
	s.After(time.Minute, "one", func(time.Time) {})
	s.After(2*time.Minute, "two", func(time.Time) {})
	if err := s.RunFor(time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if len(names) != 2 || names[0] != "one" || names[1] != "two" {
		t.Fatalf("tracer saw %v", names)
	}
}

func TestMidday(t *testing.T) {
	ts := time.Date(2009, 9, 22, 8, 15, 0, 0, time.UTC)
	want := time.Date(2009, 9, 22, 12, 0, 0, 0, time.UTC)
	if got := Midday(ts); !got.Equal(want) {
		t.Fatalf("Midday = %v, want %v", got, want)
	}
}

func TestNextMidday(t *testing.T) {
	cases := []struct {
		in, want time.Time
	}{
		{time.Date(2009, 9, 22, 8, 0, 0, 0, time.UTC), time.Date(2009, 9, 22, 12, 0, 0, 0, time.UTC)},
		{time.Date(2009, 9, 22, 12, 0, 0, 0, time.UTC), time.Date(2009, 9, 23, 12, 0, 0, 0, time.UTC)},
		{time.Date(2009, 9, 22, 15, 0, 0, 0, time.UTC), time.Date(2009, 9, 23, 12, 0, 0, 0, time.UTC)},
	}
	for _, c := range cases {
		if got := NextMidday(c.in); !got.Equal(c.want) {
			t.Fatalf("NextMidday(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestHourOfDay(t *testing.T) {
	ts := time.Date(2009, 1, 1, 6, 30, 0, 0, time.UTC)
	if got := HourOfDay(ts); got != 6.5 {
		t.Fatalf("HourOfDay = %v, want 6.5", got)
	}
}

// slotsIn counts slots of the identity table in the given state — the
// replacement for the old tests that counted cancelled/queued map entries.
func slotsIn(s *Simulator, state uint8) int {
	n := 0
	for _, sl := range s.slots {
		if sl.state == state {
			n++
		}
	}
	return n
}

// queued counts the events in s's queue, cancelled ones included: a
// cancelled slot stays in the queue until the pop that reaps it.
func queued(s *Simulator) int {
	return slotsIn(s, slotPending) + slotsIn(s, slotCancelled)
}

func TestCancelAfterExecutionIsNoOp(t *testing.T) {
	s := New(1)
	id := s.After(time.Hour, "e", func(time.Time) {})
	if err := s.RunFor(2 * time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	s.Cancel(id) // the event already ran; this must not poison anything
	if n := slotsIn(s, slotCancelled); n != 0 {
		t.Fatalf("%d slots cancelled by a stale Cancel (leak)", n)
	}
	ran := false
	s.After(time.Hour, "later", func(time.Time) { ran = true })
	if err := s.RunFor(2 * time.Hour); err != nil {
		t.Fatalf("second RunFor: %v", err)
	}
	if !ran {
		t.Fatal("event after stale Cancel did not run")
	}
}

func TestCancelUnknownIDIsNoOp(t *testing.T) {
	s := New(1)
	s.Cancel(EventID(12345))
	if n := slotsIn(s, slotCancelled); n != 0 {
		t.Fatalf("%d slots cancelled for an unknown ID", n)
	}
}

func TestCancelledSlotsDrainAfterRun(t *testing.T) {
	s := New(1)
	for i := 0; i < 4; i++ {
		id := s.After(time.Duration(i+1)*time.Minute, "e", func(time.Time) { t.Fatal("cancelled event ran") })
		s.Cancel(id)
		s.Cancel(id) // double-cancel is still one cancelled slot
	}
	if n := slotsIn(s, slotCancelled); n != 4 {
		t.Fatalf("%d cancelled slots, want 4", n)
	}
	if err := s.RunFor(time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if c, p := slotsIn(s, slotCancelled), slotsIn(s, slotPending); c != 0 || p != 0 {
		t.Fatalf("residue after run: %d cancelled, %d pending slots", c, p)
	}
	if len(s.freeSlots) != len(s.slots) {
		t.Fatalf("free list holds %d of %d slots after drain", len(s.freeSlots), len(s.slots))
	}
}

func TestStaleCancelCannotKillSlotReuser(t *testing.T) {
	// The generation scheme's whole point: an EventID whose event already
	// ran must not cancel the unrelated event that reuses its slot.
	s := New(1)
	stale := s.After(time.Minute, "first", func(time.Time) {})
	if err := s.RunFor(time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	ran := false
	reuser := s.After(time.Minute, "second", func(time.Time) { ran = true })
	if uint32(stale) != uint32(reuser) {
		t.Fatalf("test premise broken: slot not reused (ids %d, %d)", stale, reuser)
	}
	s.Cancel(stale)
	if err := s.RunFor(time.Hour); err != nil {
		t.Fatalf("second RunFor: %v", err)
	}
	if !ran {
		t.Fatal("stale Cancel killed the event that reused its slot")
	}
}

func TestStopBetweenRunsHonoured(t *testing.T) {
	s := New(1)
	ran := false
	s.After(time.Minute, "e", func(time.Time) { ran = true })
	s.Stop()
	before := s.Now()
	if err := s.RunFor(time.Hour); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run after pending Stop = %v, want ErrStopped", err)
	}
	if ran {
		t.Fatal("Run executed an event despite a pending Stop")
	}
	if !s.Now().Equal(before) {
		t.Fatalf("clock moved to %v during a stopped Run", s.Now())
	}
	// The stop is consumed: the next Run proceeds normally.
	if err := s.RunFor(time.Hour); err != nil {
		t.Fatalf("Run after consumed Stop: %v", err)
	}
	if !ran {
		t.Fatal("event did not run once the Stop was consumed")
	}
}

func TestTickerStopInsideOwnCallbackLeavesNoResidue(t *testing.T) {
	// Ticker.Stop from inside the ticker's own callback cancels the ID of
	// the event that is currently executing — exactly the already-popped
	// case that used to leak an entry in the cancelled map forever.
	s := New(1)
	var tk *Ticker
	fires := 0
	tk = s.Every(s.Now().Add(time.Hour), time.Hour, "tick", func(time.Time) {
		if fires++; fires == 2 {
			tk.Stop()
		}
	})
	if err := s.RunFor(12 * time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if fires != 2 {
		t.Fatalf("ticker fired %d times after Stop at 2", fires)
	}
	if n := slotsIn(s, slotCancelled); n != 0 {
		t.Fatalf("self-stopping ticker leaked %d cancelled slots", n)
	}
}

func TestPendingCountsCancelledUntilSkipped(t *testing.T) {
	s := New(1)
	s.After(time.Minute, "a", func(time.Time) {})
	id := s.After(2*time.Minute, "b", func(time.Time) {})
	s.After(3*time.Minute, "c", func(time.Time) {})
	s.Cancel(id)
	// Cancelled events stay queued until a pop skips them.
	if got := queued(s); got != 3 {
		t.Fatalf("Pending = %d before run, want 3 (cancelled still queued)", got)
	}
	if err := s.RunFor(time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := queued(s); got != 0 {
		t.Fatalf("Pending = %d after run, want 0", got)
	}
	if s.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2 (cancelled event must not count)", s.Processed())
	}
}

func TestPendingCountsCancelledInsideRun(t *testing.T) {
	// A cancelled event in the middle of a 1000-event run stays counted
	// until the pop that skips it, like one on its own heap key.
	s := New(1)
	at := s.Now().Add(time.Minute)
	fn := func(time.Time) {}
	var middle EventID
	for i := 0; i < 1000; i++ {
		id := s.At(at, "burst", fn)
		if i == 500 {
			middle = id
		}
	}
	s.At(at.Add(time.Minute), "later", fn)
	s.Cancel(middle)
	if got := queued(s); got != 1001 {
		t.Fatalf("Pending = %d after cancel, want 1001 (cancelled still queued)", got)
	}
	for i := 1; i <= 500; i++ {
		s.Step()
		if got, want := queued(s), 1001-i; got != want {
			t.Fatalf("Pending = %d after %d steps, want %d", got, i, want)
		}
	}
	s.Step() // skips the cancelled event, then runs the one after it
	if got := queued(s); got != 499 {
		t.Fatalf("Pending = %d after the skipping pop, want 499", got)
	}
	if err := s.RunFor(time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := queued(s); got != 0 {
		t.Fatalf("Pending = %d after run, want 0", got)
	}
	if s.Processed() != 1000 {
		t.Fatalf("Processed = %d, want 1000", s.Processed())
	}
}

func TestSameTimestampEventScheduledMidEventRunsLast(t *testing.T) {
	// An event scheduled *during* an event for the current instant joins
	// the back of the same-timestamp queue (schedule order, not LIFO).
	s := New(1)
	at := s.Now().Add(time.Hour)
	var order []string
	s.At(at, "first", func(now time.Time) {
		order = append(order, "first")
		s.At(now, "nested", func(time.Time) { order = append(order, "nested") })
	})
	s.At(at, "second", func(time.Time) { order = append(order, "second") })
	if err := s.RunFor(2 * time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	want := []string{"first", "second", "nested"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}

func TestRunHorizonChainingAfterQueueDrain(t *testing.T) {
	// When the queue drains mid-run the clock still advances to the
	// horizon, so a later Run schedules relative to the horizon, not the
	// last event.
	s := New(1)
	s.After(time.Hour, "early", func(time.Time) {})
	if err := s.RunFor(24 * time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if !s.Now().Equal(Epoch.Add(24 * time.Hour)) {
		t.Fatalf("clock at %v after drain, want horizon", s.Now())
	}
	var at time.Time
	s.After(time.Hour, "chained", func(now time.Time) { at = now })
	if err := s.RunFor(24 * time.Hour); err != nil {
		t.Fatalf("second RunFor: %v", err)
	}
	want := Epoch.Add(25 * time.Hour)
	if !at.Equal(want) {
		t.Fatalf("chained event ran at %v, want %v", at, want)
	}
}

// Property: for any set of offsets, events execute in nondecreasing time order.
func TestPropertyEventsExecuteInTimeOrder(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New(99)
		var times []time.Time
		for _, off := range offsets {
			s.After(time.Duration(off)*time.Second, "e", func(now time.Time) {
				times = append(times, now)
			})
		}
		if err := s.RunFor(24 * time.Hour); err != nil {
			return false
		}
		if len(times) != len(offsets) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i].Before(times[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: NextMidday is always strictly after its input and at hour 12.
func TestPropertyNextMiddayStrictlyAfter(t *testing.T) {
	f := func(sec uint32) bool {
		ts := Epoch.Add(time.Duration(sec) * time.Second)
		nm := NextMidday(ts)
		return nm.After(ts) && nm.Hour() == 12 && nm.Sub(ts) <= 24*time.Hour
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
