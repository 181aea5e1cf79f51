package simenv

import (
	"testing"
	"time"
)

// These tests pin the kernel's allocation discipline: once the queue and
// slot table have grown to working size, scheduling and executing events
// must not touch the heap at all. A regression here multiplies by every
// event of every cell of every campaign, so it fails the build rather than
// waiting for the bench trajectory to notice.
//
// The same set of functions carries //glacvet:hotpath in simenv.go (At,
// schedule, After, Cancel, Step, pushRun, popRun, popHead, allocSlot,
// freeSlot, scheduleGroup, fireGroup, Ticker.tick, Rand): `make lint`
// rejects the allocation patterns statically, these pins catch whatever
// slips past the lint at runtime. Keep the two sets in sync.

func TestScheduleStepAllocFree(t *testing.T) {
	s := New(1)
	fn := func(time.Time) {}
	// Warm up so the queue, slot table and free list reach steady size.
	for i := 0; i < 64; i++ {
		s.After(time.Second, "warm", fn)
	}
	for s.Step() {
	}
	avg := testing.AllocsPerRun(200, func() {
		s.After(time.Second, "e", fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule+execute allocates %.1f objects/op in steady state, want 0", avg)
	}
}

func TestCancelAllocFree(t *testing.T) {
	s := New(1)
	fn := func(time.Time) {}
	for i := 0; i < 64; i++ {
		s.After(time.Second, "warm", fn)
	}
	for s.Step() {
	}
	avg := testing.AllocsPerRun(200, func() {
		id := s.After(time.Second, "e", fn)
		s.Cancel(id)
		for s.Step() {
		}
	})
	if avg != 0 {
		t.Fatalf("schedule+cancel+reap allocates %.1f objects/op, want 0", avg)
	}
}

func TestTickerSteadyStateAllocFree(t *testing.T) {
	s := New(1)
	s.Every(s.Now().Add(time.Second), time.Second, "tk", func(time.Time) {})
	if !s.Step() { // first firing settles the reschedule path
		t.Fatal("ticker did not fire")
	}
	avg := testing.AllocsPerRun(200, func() {
		if !s.Step() {
			t.Fatal("ticker stopped firing")
		}
	})
	if avg != 0 {
		t.Fatalf("ticker reschedule allocates %.1f objects/op, want 0 (tick closure must be bound once)", avg)
	}
}

// TestJoinGroupFireAllocFree pins a steady-state group fire: a hundred
// members, each traced and counted, then the group's one reschedule.
func TestJoinGroupFireAllocFree(t *testing.T) {
	s := New(1)
	fn := func(time.Time) {}
	const members = 100
	for i := 0; i < members; i++ {
		s.Join(s.Now().Add(time.Second), time.Second, "grp", fn)
	}
	traced := 0
	s.OnEvent(func(string, time.Time) { traced++ })
	if !s.Step() { // first fire settles the slot table
		t.Fatal("group did not fire")
	}
	avg := testing.AllocsPerRun(200, func() {
		if !s.Step() {
			t.Fatal("group stopped firing")
		}
	})
	if avg != 0 {
		t.Fatalf("a group fire allocates %.1f objects/op, want 0", avg)
	}
	// AllocsPerRun runs the function once more than asked, to warm up.
	if want := uint64(202 * members); s.Processed() != want || traced != int(want) {
		t.Fatalf("processed %d, traced %d events, want %d: each member is its own event", s.Processed(), traced, want)
	}
}

func TestSameTimeBurstAllocFree(t *testing.T) {
	s := New(1)
	fn := func(time.Time) {}
	burst := func() {
		at := s.Now().Add(time.Second)
		for i := 0; i < 1000; i++ {
			s.At(at, "burst", fn)
		}
		for s.Step() {
		}
	}
	burst() // the slot table and free list grow to the burst once
	avg := testing.AllocsPerRun(20, burst)
	if avg != 0 {
		t.Fatalf("scheduling and draining a 1000-event burst allocates %.1f objects/op, want 0", avg)
	}
}

func TestAppendToDrainingRunAllocFree(t *testing.T) {
	s := New(1)
	fn := func(time.Time) {}
	joined := true
	appendNow := func(now time.Time) {
		s.At(now, "appended", fn)
		// "tail" is still queued, so a push would make a second heap key.
		joined = joined && len(s.queue) == 1
	}
	cycle := func() {
		at := s.Now().Add(time.Second)
		s.At(at, "head", appendNow)
		s.At(at, "tail", fn)
		for s.Step() {
		}
	}
	cycle()
	avg := testing.AllocsPerRun(200, cycle)
	if !joined {
		t.Fatal("At(now) from a draining run's event opened a new run instead of appending")
	}
	if avg != 0 {
		t.Fatalf("appending to the draining run allocates %.1f objects/op, want 0", avg)
	}
}

func TestCancelRunMiddleAllocFree(t *testing.T) {
	s := New(1)
	fn := func(time.Time) {}
	cycle := func() {
		at := s.Now().Add(time.Second)
		s.At(at, "head", fn)
		s.Cancel(s.At(at, "middle", fn))
		s.At(at, "tail", fn)
		for s.Step() {
		}
	}
	cycle()
	avg := testing.AllocsPerRun(200, cycle)
	if avg != 0 {
		t.Fatalf("cancelling the middle of a run allocates %.1f objects/op, want 0", avg)
	}
}
