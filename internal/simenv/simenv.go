// Package simenv provides the deterministic discrete-event simulation kernel
// used by every simulated subsystem in the Glacsweb reproduction.
//
// The kernel is deliberately small: a virtual clock and a priority queue
// of timestamped events; randomness is HashNoise, a pure function of the
// seed. All hardware, weather and link models are built as events
// scheduled on a Simulator, which makes multi-month deployments run in
// milliseconds and makes every run exactly reproducible from its seed.
//
// The queue is a hand-rolled binary heap of runs (no container/heap
// interface boxing). A run is a FIFO of events that share a timestamp and
// were scheduled back to back, linked through their slots; the heap holds
// one fixed-size key per run. Duty-cycled models put thousands of events on
// the same instants, so most schedules append to a run and most executions
// advance a run's head in place, and only a run's last event pays for a
// sift. Execution order is exactly (time, schedule order).
//
// Periodic work that many components do on one beat can share a queue
// entry: Join adds a member to the group due at the same instant under the
// same name and period, and the group's one entry fires every member in
// join order, each traced and counted as its own event.
//
// The event loop is engineered for allocation discipline: event payload and
// identity live in a reusable generation-stamped slot table rather than
// per-event boxes or map entries, and tickers reschedule with a closure
// bound once at construction. Steady-state schedule/execute cycles perform
// zero heap allocations (pinned by TestScheduleStepAllocFree), which is
// what lets fleet-scale sweep campaigns run at memory-bandwidth speed
// instead of garbage-collection speed.
package simenv

import (
	"errors"
	"fmt"
	"time"
)

// Epoch is the default simulation start time. Deployments usually override it
// (the Iceland deployment scenarios start in autumn 2008), but tests rely on
// a stable default.
var Epoch = time.Date(2008, time.September, 1, 0, 0, 0, 0, time.UTC)

// ErrStopped is returned by Run when the simulation was stopped explicitly
// via Stop rather than by reaching its horizon or draining its queue.
var ErrStopped = errors.New("simenv: simulation stopped")

// EventFunc is the body of a scheduled event. It runs at its scheduled
// simulated time on the single simulation goroutine.
type EventFunc func(now time.Time)

// EventID identifies a scheduled event so it can be cancelled. The zero
// value is never issued, so it can stand for "no event". An ID packs a slot
// index and a generation: when the event runs (or its cancellation is
// reaped) the slot's generation advances, so a stale ID held by a component
// can never affect an unrelated event that later reuses the slot.
type EventID uint64

// event is a heap element: the key of one *run* — every pending event
// that shares a timestamp and was scheduled back to back. It holds the
// 24-byte ordering key (time, first seq) plus the slot index of the run's
// head; the rest of the run hangs off that slot through eventSlot.next. The
// payload lives in the slot table, not the heap, because the sift loops
// move elements O(log n) times each — at fleet scale, swapping an 80-byte
// struct with an embedded time.Time was the kernel's single largest compute
// cost (runtime.duffcopy + time.Time.Before dominated the CPU profile).
type event struct {
	// atSec/atNsec are at.Unix()/at.Nanosecond(), precomputed once at
	// schedule time. Two integer compares are several times cheaper than
	// time.Time.Equal/Before (which unpack the wall/ext encoding per
	// call). Unlike UnixNano they cannot overflow, so events centuries
	// out (exponential probe lifetimes) still order correctly.
	atSec  int64
	seq    uint64 // seq of the run's first event: orders same-time runs
	atNsec int32
	slot   uint32 // index into Simulator.slots of the run's head
}

// eventQueue is a binary min-heap of run keys ordered by (at, seq). The
// sift routines are hand-rolled instead of using container/heap: the
// interface-based API would box every pushed key onto the heap, which at
// fleet scale was the single largest allocation site in the simulator.
// Keys stand for runs, so the heap holds one entry per run rather than one
// per event, and only the pop of a run's last event sifts (popHead).
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	a, b := &q[i], &q[j]
	if a.atSec != b.atSec {
		return a.atSec < b.atSec
	}
	if a.atNsec != b.atNsec {
		return a.atNsec < b.atNsec
	}
	return a.seq < b.seq
}

//glacvet:hotpath
func (s *Simulator) pushRun(ev event) {
	s.queue = append(s.queue, ev)
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

//glacvet:hotpath
func (s *Simulator) popRun() {
	q := s.queue
	n := len(q) - 1
	q[0] = q[n]
	s.queue = q[:n]
	q = s.queue
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// popHead unlinks the earliest pending event — the head of the top run —
// and returns its slot. While the run has more events the heap key stays
// put with its head advanced; the run's last event pops the key. When that
// run is the one At would append to, it is forgotten, so the next event at
// its time starts a fresh run with a larger seq.
//
//glacvet:hotpath
func (s *Simulator) popHead() uint32 {
	top := &s.queue[0]
	idx := top.slot
	if next := s.slots[idx].next; next != noSlot {
		top.slot = next
	} else {
		if idx == s.runTail {
			s.runTail = noSlot
		}
		s.popRun()
	}
	return idx
}

// Slot states for the event identity table. A slot is free until At claims
// it, pending while its event sits in the queue, and cancelled between
// Cancel and the pop that reaps it.
const (
	slotFree uint8 = iota
	slotPending
	slotCancelled
)

// noSlot ends a run's chain of slots and marks "no run to append to".
const noSlot = ^uint32(0)

// eventSlot carries an event's identity (generation + lifecycle state), its
// payload and its link to the next event of the same run. Payload lives
// here rather than in the heap so heap elements stay a compact fixed-size
// key; the fn/name references are dropped the moment the slot is freed so
// the GC never sees residue from executed events.
type eventSlot struct {
	at    time.Time
	fn    EventFunc
	name  string
	gen   uint32
	next  uint32 // next slot of the run, or noSlot at its tail
	group uint32 // 1 + index into Simulator.groups for a Join group's entry, else 0
	state uint8
}

// packID encodes a slot index and generation as an EventID. The +1 keeps
// the zero EventID unused so components can treat it as "no event".
func packID(idx, gen uint32) EventID {
	return EventID(uint64(gen)<<32 | (uint64(idx) + 1))
}

// slotFor resolves an EventID to its live slot, or nil for an ID that was
// never issued or whose slot has since been recycled (generation mismatch).
func (s *Simulator) slotFor(id EventID) *eventSlot {
	low := uint64(id) & 0xFFFFFFFF
	if low == 0 || low > uint64(len(s.slots)) {
		return nil
	}
	sl := &s.slots[low-1]
	if sl.gen != uint32(uint64(id)>>32) {
		return nil
	}
	return sl
}

// Simulator is a single-threaded discrete-event simulator. The zero value is
// not usable; construct with New.
type Simulator struct {
	now       time.Time
	queue     eventQueue
	seq       uint64
	slots     []eventSlot
	freeSlots []uint32
	// The run At pushed most recently, while any of it is queued: its
	// time and its tail slot (noSlot once the tail has popped). Only this
	// run takes appends, so a run never gains an event out of seq order.
	runSec    int64
	runNsec   int32
	runTail   uint32
	stopped   bool
	running   bool
	processed uint64
	seed      int64

	tracers []func(name string, at time.Time)
	groups  []*joinGroup // every Join group, in creation order
}

// New returns a Simulator whose clock starts at Epoch, for a run whose
// randomness derives from seed.
func New(seed int64) *Simulator {
	return NewAt(seed, Epoch)
}

// NewAt returns a Simulator whose clock starts at the given time.
func NewAt(seed int64, start time.Time) *Simulator {
	return &Simulator{now: start, seed: seed, runTail: noSlot}
}

// Now returns the current simulated time.
func (s *Simulator) Now() time.Time { return s.now }

// Seed returns the seed the simulator was constructed with.
func (s *Simulator) Seed() int64 { return s.seed }

// Processed reports how many events have executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// OnEvent registers a tracer invoked before each event runs. Used by tests
// and the trace package to observe scheduling without changing behaviour,
// and by the evlog recorder/verifier (DESIGN.md §12) as the hook through
// which whole runs are recorded and replayed event for event. With no
// tracers registered the Step path pays nothing for this seam.
func (s *Simulator) OnEvent(fn func(name string, at time.Time)) {
	s.tracers = append(s.tracers, fn)
}

// At schedules fn to run at the given absolute simulated time. Scheduling in
// the past (or exactly now) runs the event at the current time, after any
// events already queued for that time. Steady-state scheduling allocates
// nothing: the event's payload and identity live in a recycled slot, and
// the heap only grows when the event opens a new run.
//
// An event at the same instant as the previous At joins the tail of that
// event's run, while the run is still queued, without touching the heap. That keeps (at, seq) order exactly: the most
// recently pushed run holds the largest seq of all queued events, even
// while it drains, and every earlier run at the same instant is closed for
// good, so all of its events precede the appended one.
//
//glacvet:hotpath
func (s *Simulator) At(at time.Time, name string, fn EventFunc) EventID {
	if fn == nil {
		panic("simenv: nil EventFunc")
	}
	idx, id := s.schedule(at, name)
	s.slots[idx].fn = fn
	return id
}

// schedule queues an event with no payload yet at at (clamped to now) and
// returns its slot; the caller fills in the fn or the group.
//
//glacvet:hotpath
func (s *Simulator) schedule(at time.Time, name string) (uint32, EventID) {
	if at.Before(s.now) {
		at = s.now
	}
	s.seq++
	idx, id := s.allocSlot()
	sl := &s.slots[idx]
	sl.at = at
	sl.name = name
	sl.next = noSlot
	atSec, atNsec := at.Unix(), int32(at.Nanosecond())
	if s.runTail != noSlot && atSec == s.runSec && atNsec == s.runNsec {
		s.slots[s.runTail].next = idx
	} else {
		s.pushRun(event{atSec: atSec, atNsec: atNsec, seq: s.seq, slot: idx})
		s.runSec, s.runNsec = atSec, atNsec
	}
	s.runTail = idx
	return idx, id
}

//glacvet:hotpath
func (s *Simulator) allocSlot() (uint32, EventID) {
	var idx uint32
	if n := len(s.freeSlots); n > 0 {
		idx = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
	} else {
		s.slots = append(s.slots, eventSlot{})
		idx = uint32(len(s.slots) - 1)
	}
	s.slots[idx].state = slotPending
	return idx, packID(idx, s.slots[idx].gen)
}

// freeSlot retires the slot behind a popped event and reports whether the
// event had been cancelled. Advancing the generation invalidates any stale
// EventID a component still holds, so slot reuse can never let an old
// Cancel reach an unrelated new event. The payload references are dropped
// here so the GC can reclaim the callback and whatever it captured.
//
//glacvet:hotpath
func (s *Simulator) freeSlot(idx uint32) (cancelled bool) {
	sl := &s.slots[idx]
	cancelled = sl.state == slotCancelled
	sl.state = slotFree
	sl.gen++
	sl.fn = nil
	sl.name = ""
	sl.group = 0
	s.freeSlots = append(s.freeSlots, idx)
	return cancelled
}

// After schedules fn to run d after the current simulated time. Negative
// durations are treated as zero.
//
//glacvet:hotpath
func (s *Simulator) After(d time.Duration, name string, fn EventFunc) EventID {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), name, fn)
}

// Every schedules fn at the given period starting at start, rescheduling
// itself until cancelled via the returned *Ticker.
func (s *Simulator) Every(start time.Time, period time.Duration, name string, fn EventFunc) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("simenv: non-positive ticker period %v", period))
	}
	t := &Ticker{sim: s, period: period, name: name, fn: fn}
	t.tickFn = t.tick // bound once; every reschedule reuses this closure
	t.id = s.At(start, name, t.tickFn)
	return t
}

// Join adds fn to the group of periodic members that first fire at start
// (clamped to now) and then every period under name. Members whose next
// firing is at the same instant, with the same name and period, share one
// queue entry, which fires them in join order; a member joined at another
// phase starts a group of its own. Groups are never merged, so a group
// keeps the queue position its first member's schedule gave it.
//
// Each member is traced (OnEvent) and counted (Processed) as its own
// event, exactly as if it had its own ticker, but the whole group runs in
// one Step: a Stop issued inside a member takes effect after the group.
// Members cannot be stopped; Join is for work that lasts as long as the
// simulator, such as a power bus's integration tick.
func (s *Simulator) Join(start time.Time, period time.Duration, name string, fn EventFunc) {
	if period <= 0 {
		panic(fmt.Sprintf("simenv: non-positive join period %v", period))
	}
	if fn == nil {
		panic("simenv: nil EventFunc")
	}
	if start.Before(s.now) {
		start = s.now
	}
	for _, g := range s.groups {
		if g.next.Equal(start) && g.period == period && g.name == name {
			g.members = append(g.members, fn)
			return
		}
	}
	g := &joinGroup{next: start, period: period, name: name, members: []EventFunc{fn}}
	s.groups = append(s.groups, g)
	s.scheduleGroup(uint32(len(s.groups)))
}

// joinGroup is the shared queue entry of Join members on one beat.
type joinGroup struct {
	next    time.Time // when the group's entry fires next
	period  time.Duration
	name    string
	members []EventFunc // in join order
}

// scheduleGroup queues the entry of group gi (1-based) at its next firing.
//
//glacvet:hotpath
func (s *Simulator) scheduleGroup(gi uint32) {
	g := s.groups[gi-1]
	idx, _ := s.schedule(g.next, g.name)
	s.slots[idx].group = gi
}

// fireGroup runs every member of group gi in join order, each traced and
// counted as its own event, then queues the group's next entry. The next
// firing is set first, so a member joining from inside the fire at
// now+period lands in this group.
//
//glacvet:hotpath
func (s *Simulator) fireGroup(gi uint32) {
	g := s.groups[gi-1]
	now := s.now
	g.next = now.Add(g.period)
	for _, fn := range g.members {
		for _, tr := range s.tracers {
			tr(g.name, now)
		}
		s.processed++
		fn(now)
	}
	s.scheduleGroup(gi)
}

// Cancel prevents a scheduled event from running. Cancelling an event that
// already ran (or was already cancelled, or was never issued) is a no-op:
// the ID's generation no longer matches its slot, so nothing is marked and
// nothing can leak — the slot table holds no residue for completed events.
//
//glacvet:hotpath
func (s *Simulator) Cancel(id EventID) {
	if sl := s.slotFor(id); sl != nil && sl.state == slotPending {
		sl.state = slotCancelled
	}
}

// Stop halts Run after the currently executing event returns; inside a Join
// member, after the member's whole group has run. A Stop issued
// while no Run is in progress is honoured by the next Run, which returns
// ErrStopped before executing any event; each Stop stops exactly one Run.
func (s *Simulator) Stop() { s.stopped = true }

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed. A Join group's entry executes
// all of its members in one Step.
//
//glacvet:hotpath
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		idx := s.popHead()
		sl := &s.slots[idx]
		at, fn, name, group := sl.at, sl.fn, sl.name, sl.group
		if s.freeSlot(idx) {
			continue
		}
		if at.After(s.now) {
			s.now = at
		}
		if group != 0 {
			s.fireGroup(group)
			return true
		}
		for _, tr := range s.tracers {
			tr(name, s.now)
		}
		s.processed++
		fn(s.now)
		return true
	}
	return false
}

// Run executes events until the queue is empty, the horizon is reached, or
// Stop is called. The clock is left at min(horizon, last event time); if the
// queue drains before the horizon the clock is advanced to the horizon so
// callers can chain Run calls. Returns ErrStopped iff stopped explicitly —
// including a Stop issued before Run was called, which stops this Run
// before it executes anything (the stop is consumed either way, so a
// subsequent Run proceeds normally).
func (s *Simulator) Run(until time.Time) error {
	if s.running {
		panic("simenv: re-entrant Run")
	}
	s.running = true
	defer func() { s.running = false }()
	for !s.stopped {
		at, ok := s.peek()
		if !ok || at.After(until) {
			break
		}
		s.Step()
	}
	if s.stopped {
		s.stopped = false
		return ErrStopped
	}
	if s.now.Before(until) {
		s.now = until
	}
	return nil
}

// RunFor runs the simulation for d of simulated time from the current clock.
func (s *Simulator) RunFor(d time.Duration) error {
	return s.Run(s.now.Add(d))
}

// peek returns the time of the next live event, reaping any cancelled
// events at the head of the top run.
func (s *Simulator) peek() (time.Time, bool) {
	for len(s.queue) > 0 {
		sl := &s.slots[s.queue[0].slot]
		if sl.state == slotCancelled {
			s.freeSlot(s.popHead())
			continue
		}
		return sl.at, true
	}
	return time.Time{}, false
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	sim    *Simulator
	period time.Duration
	name   string
	fn     EventFunc
	tickFn EventFunc // t.tick bound once, so rescheduling allocates no closure
	id     EventID
	done   bool
}

// Stop cancels all future firings of the ticker.
func (t *Ticker) Stop() {
	if t.done {
		return
	}
	t.done = true
	t.sim.Cancel(t.id)
}

//glacvet:hotpath
func (t *Ticker) tick(now time.Time) {
	if t.done {
		return
	}
	t.fn(now)
	if t.done { // fn may have stopped us
		return
	}
	t.id = t.sim.At(now.Add(t.period), t.name, t.tickFn)
}

// Midday returns 12:00 UTC on the day containing ts — the daily
// communications window used throughout the deployment.
func Midday(ts time.Time) time.Time {
	y, m, d := ts.UTC().Date()
	return time.Date(y, m, d, 12, 0, 0, 0, time.UTC)
}

// NextMidday returns the first 12:00 UTC strictly after ts.
func NextMidday(ts time.Time) time.Time {
	mid := Midday(ts)
	if mid.After(ts) {
		return mid
	}
	return mid.Add(24 * time.Hour)
}

// StartOfDay returns 00:00 UTC on the day containing ts.
func StartOfDay(ts time.Time) time.Time {
	y, m, d := ts.UTC().Date()
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// DayOfYear returns the 1-based day of year of ts in UTC.
func DayOfYear(ts time.Time) int { return ts.UTC().YearDay() }

// HourOfDay returns the hour of day of ts in UTC as a float in [0, 24).
func HourOfDay(ts time.Time) float64 {
	u := ts.UTC()
	return float64(u.Hour()) + float64(u.Minute())/60 + float64(u.Second())/3600
}
