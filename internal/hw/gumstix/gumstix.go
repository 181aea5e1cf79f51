// Package gumstix simulates the ARM Linux half of a Gumsense board.
//
// The Gumstix (connex, 400 MHz XScale) provides "a lot of processing power
// in a small footprint ... at the cost of high power consumption (~100 mA)
// and no useful sleep mode" — so in the deployment it is only powered when
// needed, switched by the MSP430. We model it as a serial job executor: it
// boots some seconds after its rail comes up, then runs queued jobs one at a
// time, each job occupying simulated time. Cutting the rail mid-job aborts
// the job and clears the queue, exactly like yanking power from a Linux box.
package gumstix

import (
	"time"

	"repro/internal/hw/mcu"
	"repro/internal/simenv"
)

// Rail is the MCU power-rail name conventionally used for the Gumstix.
const Rail = "gumstix"

// PowerW is the Gumstix draw while powered: ~100 mA at a ~9 V converter
// input ≈ 0.9 W, matching Table I's 900 mW.
const PowerW = 0.9

// DefaultBootDelay is the time from rail-up to userland ready.
const DefaultBootDelay = 35 * time.Second

// Job is one unit of work on the host. Work runs when the job starts (so
// the duration can depend on how much data accumulated) and returns the
// simulated duration the job occupies, plus an optional completion
// function the host applies when the job finishes. A power cut mid-job
// drops the job: its completion never runs.
type Job struct {
	Name string
	Work func(now time.Time) (time.Duration, func(now time.Time))
}

// Host is a simulated Gumstix. Construct with New; drive it by switching its
// MCU rail.
type Host struct {
	sim  *simenv.Simulator
	name string

	powered bool
	booted  bool

	// queue[head:] are the waiting jobs. A head index (rather than
	// re-slicing or prepending) lets pops and front-pushes reuse the same
	// backing array, so a steady daily sequence enqueues with zero
	// allocations once the array has grown to working size.
	queue    []Job
	head     int
	running  bool
	curEv    simenv.EventID
	curApply func(now time.Time)

	onBoot []func(now time.Time)

	// Bound-once callbacks and interned event names: the hot path schedules
	// thousands of boots and job completions per simulated season, and
	// building a fresh closure or name string for each was a dominant
	// allocation source.
	bootFn    simenv.EventFunc
	jobDoneFn simenv.EventFunc
	bootName  string
	jobNames  map[string]string

	bootDelay time.Duration
}

// New constructs a Host bound to the MCU's Gumstix rail. The rail must not
// be defined yet; New defines it with the standard draw.
func New(sim *simenv.Simulator, ctrl *mcu.MCU, name string) *Host {
	h := &Host{sim: sim, name: name, bootDelay: DefaultBootDelay}
	h.bootName = name + ".boot"
	h.bootFn = h.bootDone
	h.jobDoneFn = h.jobDone
	h.jobNames = make(map[string]string)
	ctrl.DefineRail(Rail, PowerW)
	ctrl.OnRail(Rail, h.railChanged)
	return h
}

// Powered reports whether the rail is up.
func (h *Host) Powered() bool { return h.powered }

// OnBoot registers a callback fired each time userland comes up.
func (h *Host) OnBoot(fn func(now time.Time)) { h.onBoot = append(h.onBoot, fn) }

//glacvet:hotpath
func (h *Host) railChanged(on bool, _ time.Time) {
	if on == h.powered {
		return
	}
	h.powered = on
	if on {
		h.sim.After(h.bootDelay, h.bootName, h.bootFn)
		return
	}
	// Power removed: abort everything.
	h.booted = false
	if h.running {
		h.sim.Cancel(h.curEv)
		h.running = false
		h.curApply = nil
	}
	// Clear the queue but keep the backing array; zero the dropped slots so
	// their closures do not outlive the power cut.
	for i := h.head; i < len(h.queue); i++ {
		h.queue[i] = Job{}
	}
	h.queue = h.queue[:0]
	h.head = 0
}

//glacvet:hotpath
func (h *Host) bootDone(bootNow time.Time) {
	if !h.powered || h.booted {
		return
	}
	h.booted = true
	for _, fn := range h.onBoot {
		fn(bootNow)
	}
	h.pump(bootNow)
}

// Enqueue adds a job to the run queue. Jobs enqueued while unbooted wait for
// boot; enqueueing on an unpowered host is a silent no-op (there is no OS to
// receive the work), mirroring the real system where work is only submitted
// by processes already running on the box.
//
//glacvet:hotpath
func (h *Host) Enqueue(j Job) {
	if !h.powered {
		return
	}
	h.queue = append(h.queue, j)
	if h.booted {
		h.pump(h.sim.Now())
	}
}

// EnqueueFront adds a job at the head of the run queue, ahead of
// already-queued work. Continuation jobs (drain the next file, upload the
// next item) use this so a processing chain completes before later phases
// of the daily sequence run.
//
//glacvet:hotpath
func (h *Host) EnqueueFront(j Job) {
	if !h.powered {
		return
	}
	if h.head > 0 {
		// A pop freed a slot at the front; continuation chains (drain next
		// file, upload next item) land here and never reallocate.
		h.head--
		h.queue[h.head] = j
	} else {
		h.queue = append(h.queue, Job{})
		copy(h.queue[1:], h.queue[:len(h.queue)-1])
		h.queue[0] = j
	}
	if h.booted {
		h.pump(h.sim.Now())
	}
}

//glacvet:hotpath
func (h *Host) pump(now time.Time) {
	if h.running || !h.booted || h.head >= len(h.queue) {
		return
	}
	j := h.queue[h.head]
	h.queue[h.head] = Job{} // release the slot's closures
	h.head++
	if h.head == len(h.queue) {
		h.queue = h.queue[:0]
		h.head = 0
	}
	h.running = true
	d, apply := j.Work(now)
	h.curApply = apply
	if d < 0 {
		d = 0
	}
	h.curEv = h.sim.After(d, h.jobEventName(j.Name), h.jobDoneFn)
}

//glacvet:hotpath
func (h *Host) jobDone(doneNow time.Time) {
	if !h.booted { // power vanished; abort path already handled
		return
	}
	apply := h.curApply
	h.running = false
	h.curApply = nil
	if apply != nil {
		apply(doneNow)
	}
	h.pump(doneNow)
}

// jobEventName interns "<host>.job.<name>" — the daily sequence reuses a
// small fixed set of job names, so the concatenation happens once per name
// rather than once per job execution.
//
//glacvet:hotpath
func (h *Host) jobEventName(name string) string {
	if s, ok := h.jobNames[name]; ok {
		return s
	}
	//glacvet:allow hotpath interning miss path: the concat runs once per distinct job name, not per execution
	s := h.name + ".job." + name
	h.jobNames[name] = s
	return s
}
