package simenv

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// FuzzEventOrder drives the kernel with a schedule script decoded from the
// fuzz input and checks the executed (name, time) sequence against a
// reference model that keeps every pending event in a flat list and always
// runs the least (time, schedule order) one. The script leans on the cases
// the run-coalesced queue has to get right: heavy timestamp ties, At(now)
// and past-time At from inside a running event (appends to the run being
// drained), cancels that hit a run's head, middle or tail or a stale ID,
// Stop and resume mid-run, tickers that stop themselves or are stopped,
// and Join groups: members that share an entry or start their own at
// another phase, join from inside a fire, schedule At(now) or Stop.
func FuzzEventOrder(f *testing.F) {
	for _, seed := range [][]scriptOp{
		// A burst at one instant, an intervening push, then a second
		// burst at the same instant: two runs share a timestamp, and
		// only the newer one may take the second burst's appends.
		{atOp(time.Minute), atOp(time.Minute), atOp(time.Minute), atOp(2 * time.Minute),
			atOp(time.Minute), atOp(time.Minute), atOp(time.Minute), atOp(5 * time.Minute)},
		// An event that appends At(now) and a past-time At to the run it
		// is draining, cancels the tail it just added, and appends again;
		// then a run's last event schedules At(now), which must open a
		// fresh run at the instant of the run that just drained.
		{atOp(time.Minute, atOp(0), atOp(-time.Minute), cancelOp(0)), atOp(time.Minute),
			atOp(time.Minute, atOp(0)), atOp(time.Minute), atOp(2*time.Minute, atOp(0, atOp(0)))},
		// Cancels of a run's head, middle and tail, then of a stale ID
		// and an unknown one after part of the queue has run.
		{atOp(2 * time.Minute), atOp(2 * time.Minute), atOp(2 * time.Minute), atOp(2 * time.Minute),
			atOp(2 * time.Minute), cancelOp(4), cancelOp(2), cancelOp(0), atOp(5 * time.Minute),
			advanceOp(3 * time.Minute), cancelOp(1), cancelOp(-1), atOp(0)},
		// A Stop before any Run, then Stops from inside a run, each
		// followed by a resume.
		{{kind: opStop}, atOp(time.Minute, scriptOp{kind: opStop}, atOp(0)), atOp(time.Minute),
			atOp(time.Minute, scriptOp{kind: opStop}), atOp(time.Minute)},
		// Tickers on the same instants as one-shot events: one stops
		// itself on its third firing, one is stopped from the top level
		// after a partial run.
		{everyOp(time.Minute, time.Minute, 3), everyOp(time.Minute, 2*time.Minute, 0),
			atOp(time.Minute), atOp(time.Minute), atOp(2 * time.Minute),
			advanceOp(2 * time.Minute), {kind: opTickerStop, ref: 0}, atOp(0)},
		// A partial run that leaves a run queued, then more events at
		// its instant from the new clock, including one in the past.
		{atOp(2 * time.Minute), atOp(2 * time.Minute), advanceOp(time.Minute),
			atOp(time.Minute), atOp(time.Minute), atOp(-time.Minute), atOp(5 * time.Minute)},
		// Two joins share an entry; after a partial run a late joiner at
		// another phase starts its own group, and one due at the first
		// group's next firing joins it.
		{joinOp(time.Minute, 2*time.Minute), joinOp(time.Minute, 2*time.Minute), atOp(time.Minute),
			advanceOp(2 * time.Minute), joinOp(0, 2*time.Minute), joinOp(time.Minute, 2*time.Minute),
			atOp(time.Minute)},
		// A member that schedules At(now) and a past-time At on its
		// first firing, on the instant of a one-shot queued before it.
		{atOp(time.Minute), joinOp(time.Minute, time.Minute, atOp(0), atOp(-time.Minute)),
			joinOp(time.Minute, time.Minute), atOp(time.Minute)},
		// A one-shot scheduled between two joins at one instant: the
		// second join takes the first one's entry, ahead of the one-shot.
		{joinOp(time.Minute, 5*time.Minute), atOp(time.Minute), joinOp(time.Minute, 5*time.Minute),
			atOp(time.Minute)},
		// A member that Stops the run and joins its own group's next
		// firing from inside the fire, and a join from a one-shot.
		{joinOp(time.Minute, time.Minute, scriptOp{kind: opStop}, joinOp(time.Minute, time.Minute)),
			joinOp(time.Minute, time.Minute), atOp(2*time.Minute, joinOp(0, time.Minute))},
	} {
		data := encodeScript(seed)
		if got := decodeScript(data); !reflect.DeepEqual(got, seed) {
			f.Fatalf("seed does not round-trip through its encoding:\n got %+v\nwant %+v", got, seed)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		script := decodeScript(data)
		got := runScript(newKernelSched(), script)
		want := runScript(newRefSched(), script)
		if len(got) != len(want) {
			t.Fatalf("executed %d events, reference %d\n got %v\nwant %v", len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d: got %v, reference %v\n got %v\nwant %v", i, got[i], want[i], got, want)
			}
		}
	})
}

// Script operations.
const (
	opAt         = iota // schedule a one-shot event, with child ops run when it fires
	opCancel            // cancel an earlier ID, or one never issued
	opStop              // Stop the simulator
	opEvery             // start a ticker
	opTickerStop        // stop an earlier ticker
	opAdvance           // top level only: run the simulator part of the way
	opJoin              // join a group, with child ops run on the member's first firing
)

type scriptOp struct {
	kind     int
	offset   time.Duration // opAt/opEvery/opJoin: start relative to now; opAdvance: span
	period   time.Duration // opEvery/opJoin
	ref      int           // opCancel/opTickerStop: index back from the newest; -1 is an unknown ID
	selfStop int           // opEvery: stop the ticker from its own callback on this firing (0: never)
	children []scriptOp    // opAt/opJoin: run inside the event when it (first) fires
}

// Offsets repeat so that most events tie; negative ones schedule in the past.
var scriptOffsets = [...]time.Duration{0, 0, time.Minute, time.Minute, 2 * time.Minute, -time.Minute, 5 * time.Minute, 0}

const (
	scriptMaxOps   = 256
	scriptMaxDepth = 3
	scriptHorizon  = time.Hour
)

type scriptReader struct {
	data []byte
	ops  int
}

func (r *scriptReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func decodeScript(data []byte) []scriptOp {
	r := &scriptReader{data: data}
	var ops []scriptOp
	for len(r.data) > 0 && r.ops < scriptMaxOps {
		ops = append(ops, r.op(0))
	}
	return ops
}

// Opcodes of the byte encoding: an op is its opcode byte (mod 8) and then
// its operands, one byte each. Opcodes 0-1 and an opAdvance below the top
// level decode as opAt, so random bytes mostly schedule events.
const (
	codeAt         = 0
	codeJoin       = 2
	codeCancel     = 3
	codeStop       = 4
	codeEvery      = 5
	codeTickerStop = 6
	codeAdvance    = 7
)

var scriptPeriods = [...]time.Duration{time.Minute, 2 * time.Minute, 5 * time.Minute}

func (r *scriptReader) op(depth int) scriptOp {
	r.ops++
	switch r.byte() % 8 {
	case codeCancel:
		ref := int(r.byte())
		if ref == 255 {
			ref = -1
		}
		return scriptOp{kind: opCancel, ref: ref}
	case codeStop:
		return scriptOp{kind: opStop}
	case codeEvery:
		return scriptOp{
			kind:     opEvery,
			offset:   scriptOffsets[r.byte()%8],
			period:   scriptPeriods[r.byte()%3],
			selfStop: int(r.byte() % 4),
		}
	case codeTickerStop:
		return scriptOp{kind: opTickerStop, ref: int(r.byte())}
	case codeAdvance:
		if depth == 0 {
			return scriptOp{kind: opAdvance, offset: time.Duration(r.byte()%4) * time.Minute}
		}
	case codeJoin:
		op := scriptOp{kind: opJoin, offset: scriptOffsets[r.byte()%8], period: scriptPeriods[r.byte()%3]}
		r.children(&op, depth)
		return op
	}
	op := scriptOp{kind: opAt, offset: scriptOffsets[r.byte()%8]}
	r.children(&op, depth)
	return op
}

// children decodes an opAt's or opJoin's child count and child ops.
func (r *scriptReader) children(op *scriptOp, depth int) {
	n := int(r.byte() % 4)
	if depth >= scriptMaxDepth {
		n = 0
	}
	for i := 0; i < n && len(r.data) > 0 && r.ops < scriptMaxOps; i++ {
		op.children = append(op.children, r.op(depth+1))
	}
}

// encodeScript is decodeScript's inverse for the seed corpus. Offsets and
// periods must be ones the tables hold.
func encodeScript(ops []scriptOp) []byte {
	var out []byte
	index := func(table []time.Duration, d time.Duration) byte {
		for i, v := range table {
			if v == d {
				return byte(i)
			}
		}
		panic(fmt.Sprintf("duration %v not in %v", d, table))
	}
	var enc func(op scriptOp)
	enc = func(op scriptOp) {
		switch op.kind {
		case opAt:
			out = append(out, codeAt, index(scriptOffsets[:], op.offset), byte(len(op.children)))
			for _, c := range op.children {
				enc(c)
			}
		case opCancel:
			out = append(out, codeCancel, byte(op.ref))
		case opStop:
			out = append(out, codeStop)
		case opEvery:
			out = append(out, codeEvery, index(scriptOffsets[:], op.offset), index(scriptPeriods[:], op.period), byte(op.selfStop))
		case opTickerStop:
			out = append(out, codeTickerStop, byte(op.ref))
		case opAdvance:
			out = append(out, codeAdvance, byte(op.offset/time.Minute))
		case opJoin:
			out = append(out, codeJoin, index(scriptOffsets[:], op.offset), index(scriptPeriods[:], op.period),
				byte(len(op.children)))
			for _, c := range op.children {
				enc(c)
			}
		}
	}
	for _, op := range ops {
		enc(op)
	}
	return out
}

func atOp(offset time.Duration, children ...scriptOp) scriptOp {
	return scriptOp{kind: opAt, offset: offset, children: children}
}

func cancelOp(ref int) scriptOp { return scriptOp{kind: opCancel, ref: ref} }

func advanceOp(d time.Duration) scriptOp { return scriptOp{kind: opAdvance, offset: d} }

func everyOp(start, period time.Duration, selfStop int) scriptOp {
	return scriptOp{kind: opEvery, offset: start, period: period, selfStop: selfStop}
}

func joinOp(start, period time.Duration, children ...scriptOp) scriptOp {
	return scriptOp{kind: opJoin, offset: start, period: period, children: children}
}

// sched is the surface a script drives: the kernel, or the reference model.
type sched interface {
	now() time.Time
	at(at time.Time, name string, fn EventFunc) uint64
	cancel(id uint64)
	cancelUnknown()
	stop()
	every(start time.Time, period time.Duration, name string, fn EventFunc) (stop func())
	join(start time.Time, period time.Duration, name string, fn EventFunc)
	// note appends a line to the executed-event log, so a group member
	// can say which member it is.
	note(line string)
	// run runs to the horizon, resuming after each Stop, and returns the
	// executed events so far.
	run(until time.Time) []string
}

type scriptRun struct {
	s       sched
	ids     []uint64
	tickers []func()
	n       int
}

func runScript(s sched, script []scriptOp) []string {
	r := &scriptRun{s: s}
	for _, op := range script {
		if op.kind == opAdvance {
			s.run(s.now().Add(op.offset))
			continue
		}
		r.exec(op, s.now())
	}
	return s.run(s.now().Add(scriptHorizon))
}

func (r *scriptRun) exec(op scriptOp, now time.Time) {
	switch op.kind {
	case opAt:
		r.n++
		children := op.children
		r.ids = append(r.ids, r.s.at(now.Add(op.offset), fmt.Sprintf("e%d", r.n), func(now time.Time) {
			for _, c := range children {
				r.exec(c, now)
			}
		}))
	case opCancel:
		if op.ref < 0 || len(r.ids) == 0 {
			r.s.cancelUnknown()
			return
		}
		r.s.cancel(r.ids[len(r.ids)-1-op.ref%len(r.ids)])
	case opStop:
		r.s.stop()
	case opEvery:
		r.n++
		fires := 0
		var stop func()
		stop = r.s.every(now.Add(op.offset), op.period, fmt.Sprintf("t%d", r.n), func(time.Time) {
			fires++
			if fires == op.selfStop {
				stop()
			}
		})
		r.tickers = append(r.tickers, stop)
	case opJoin:
		r.n++
		member := fmt.Sprintf("m%d", r.n)
		children := op.children
		fired := false
		// Joins of one period share a name, so they can share a group.
		r.s.join(now.Add(op.offset), op.period, "j"+op.period.String(), func(now time.Time) {
			r.s.note(member)
			if !fired {
				fired = true
				for _, c := range children {
					r.exec(c, now)
				}
			}
		})
	case opTickerStop:
		if len(r.tickers) > 0 {
			r.tickers[len(r.tickers)-1-op.ref%len(r.tickers)]()
		}
	}
}

// kernelSched adapts a Simulator to sched, logging events through a tracer.
type kernelSched struct {
	s   *Simulator
	log []string
}

func newKernelSched() *kernelSched {
	k := &kernelSched{s: New(1)}
	k.s.OnEvent(func(name string, at time.Time) {
		k.log = append(k.log, name+"@"+at.Sub(Epoch).String())
	})
	return k
}

func (k *kernelSched) now() time.Time { return k.s.Now() }
func (k *kernelSched) at(at time.Time, name string, fn EventFunc) uint64 {
	return uint64(k.s.At(at, name, fn))
}
func (k *kernelSched) cancel(id uint64) { k.s.Cancel(EventID(id)) }
func (k *kernelSched) cancelUnknown() {
	k.s.Cancel(0)
	k.s.Cancel(EventID(^uint64(0)))
}
func (k *kernelSched) stop() { k.s.Stop() }
func (k *kernelSched) every(start time.Time, period time.Duration, name string, fn EventFunc) func() {
	return k.s.Every(start, period, name, fn).Stop
}
func (k *kernelSched) join(start time.Time, period time.Duration, name string, fn EventFunc) {
	k.s.Join(start, period, name, fn)
}
func (k *kernelSched) note(line string) { k.log = append(k.log, line) }
func (k *kernelSched) run(until time.Time) []string {
	for {
		err := k.s.Run(until)
		if err == nil {
			return k.log
		}
		if !errors.Is(err, ErrStopped) {
			panic(err)
		}
	}
}

// refSched is the reference model: a flat list of pending events, each run
// in turn by a linear search for the least (time, schedule order). A Join
// group is one pending event that runs its members in join order, each
// logged as its own event, and then queues itself a period later.
type refSched struct {
	clock   time.Time
	events  []refEvent
	pending []int // indices into events, in schedule order
	groups  []*refGroup
	log     []string
}

type refEvent struct {
	at        time.Time
	name      string
	fn        EventFunc
	group     *refGroup
	cancelled bool
}

type refGroup struct {
	next    time.Time
	period  time.Duration
	name    string
	members []EventFunc
}

func newRefSched() *refSched { return &refSched{clock: Epoch} }

func (r *refSched) now() time.Time { return r.clock }
func (r *refSched) at(at time.Time, name string, fn EventFunc) uint64 {
	if at.Before(r.clock) {
		at = r.clock
	}
	r.events = append(r.events, refEvent{at: at, name: name, fn: fn})
	r.pending = append(r.pending, len(r.events)-1)
	return uint64(len(r.events))
}
func (r *refSched) cancel(id uint64) {
	for _, i := range r.pending {
		if uint64(i+1) == id {
			r.events[i].cancelled = true
		}
	}
}
func (r *refSched) cancelUnknown() {}
func (r *refSched) stop()          {}
func (r *refSched) every(start time.Time, period time.Duration, name string, fn EventFunc) func() {
	var id uint64
	done := false
	var tick EventFunc
	tick = func(now time.Time) {
		fn(now)
		if done {
			return
		}
		id = r.at(now.Add(period), name, tick)
	}
	id = r.at(start, name, tick)
	return func() {
		if !done {
			done = true
			r.cancel(id)
		}
	}
}
func (r *refSched) join(start time.Time, period time.Duration, name string, fn EventFunc) {
	if start.Before(r.clock) {
		start = r.clock
	}
	for _, g := range r.groups {
		if g.next.Equal(start) && g.period == period && g.name == name {
			g.members = append(g.members, fn)
			return
		}
	}
	g := &refGroup{next: start, period: period, name: name, members: []EventFunc{fn}}
	r.groups = append(r.groups, g)
	r.queueGroup(g)
}
func (r *refSched) queueGroup(g *refGroup) {
	r.at(g.next, g.name, func(time.Time) {})
	r.events[len(r.events)-1].group = g
}
func (r *refSched) note(line string) { r.log = append(r.log, line) }
func (r *refSched) run(until time.Time) []string {
	for {
		best := -1
		for j, i := range r.pending {
			if best < 0 || r.events[i].at.Before(r.events[r.pending[best]].at) {
				best = j
			}
		}
		if best < 0 || r.events[r.pending[best]].at.After(until) {
			break
		}
		ev := r.events[r.pending[best]]
		r.pending = append(r.pending[:best], r.pending[best+1:]...)
		if ev.cancelled {
			continue
		}
		if ev.at.After(r.clock) {
			r.clock = ev.at
		}
		if g := ev.group; g != nil {
			g.next = r.clock.Add(g.period)
			for _, fn := range g.members {
				r.log = append(r.log, g.name+"@"+r.clock.Sub(Epoch).String())
				fn(r.clock)
			}
			r.queueGroup(g)
			continue
		}
		r.log = append(r.log, ev.name+"@"+r.clock.Sub(Epoch).String())
		ev.fn(r.clock)
	}
	if r.clock.Before(until) {
		r.clock = until
	}
	return r.log
}
