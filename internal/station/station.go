// Package station implements the Glacsweb station runtime: the daily
// execution sequence of Fig 4, the two-hour safety watchdog, power-state
// scheduling, the communications session with Southampton, special-command
// execution and log management.
//
// The same runtime drives both stations; a base station additionally owns
// the sub-glacial probe fetch. The flowchart order is reproduced exactly —
// including the as-deployed mistake of executing the special command *after*
// the data upload, which §VI identifies as the cause of the
// single-file-too-big deadlock (set Config.SpecialFirst to run the paper's
// suggested fix instead).
package station

import (
	"time"

	"repro/internal/comms"
	"repro/internal/core"
	"repro/internal/hw/gumstix"
	"repro/internal/hw/mcu"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/protocol"
	"repro/internal/recovery"
	"repro/internal/server"
	"repro/internal/simenv"
	"repro/internal/storage"
)

// Role distinguishes the two station kinds.
type Role int

// Station roles.
const (
	// RoleBase is the on-glacier base station with sub-glacial probes.
	RoleBase Role = iota + 1
	// RoleReference is the fixed dGPS reference station at the café.
	RoleReference
)

func (r Role) String() string {
	switch r {
	case RoleBase:
		return "base"
	case RoleReference:
		return "reference"
	default:
		return "unknown"
	}
}

// watchdogLimit is the §VI safety timeout: it "prevents the system from
// running for more than two hours at a time".
const watchdogLimit = 2 * time.Hour

// A station boots in the deployed power state 2 with a nominal RS-232
// link; the FaultRS232 fault and the set-rs232 special change the link
// later through SetRS232Health.
const (
	initialState = power.State2
	nominalRS232 = 1.0
)

// Config parameterises a station runtime.
type Config struct {
	// Role selects base or reference behaviour.
	Role Role
	// SpecialFirst applies the paper's suggested reordering: fetch and
	// execute the special command before any data transfer, so remote
	// intervention can unblock a wedged station.
	SpecialFirst bool
	// Priority enables the paper's §VII extension: when the day's probe
	// data scores at or above ForceCommsThreshold, a state-0 day still
	// runs a minimal comms session. Nil (as deployed) disables it.
	Priority PriorityEvaluator
}

// RunReport summarises one daily run for traces and experiments.
type RunReport struct {
	// Date is the run's wake time (RTC).
	Date time.Time
	// LocalState is the voltage-derived state.
	LocalState power.State
	// Override is what the server returned (valid only if OverrideFetched).
	Override power.State
	// OverrideFetched reports whether the server was reachable.
	OverrideFetched bool
	// Effective is the state adopted for the next day.
	Effective power.State
	// ProbeReadings is how many probe readings arrived (base only).
	ProbeReadings int
	// GPSFilesDrained counts dGPS files moved off the unit this run.
	GPSFilesDrained int
	// UploadedBytes is the volume confirmed to Southampton.
	UploadedBytes int64
	// CommsOK reports whether the GPRS session worked at all.
	CommsOK bool
	// WatchdogTripped reports whether the 2 h limit cut the run short.
	WatchdogTripped bool
	// WallElapsed is how long the Gumstix was up.
	WallElapsed time.Duration
	// priority is the day's data-priority score (§VII extension; 0 when
	// the evaluator is disabled).
	priority float64
	// ForcedComms reports a marginal-power session forced by priority.
	ForcedComms bool
}

// Stats aggregates lifetime station counters.
type Stats struct {
	// Runs counts daily wake-ups.
	Runs int
	// CompletedRuns counts runs that reached the finish step.
	CompletedRuns int
	// WatchdogTrips counts 2 h cutoffs.
	WatchdogTrips int
	// CommsFailures counts days the GPRS session failed entirely.
	CommsFailures int
	// SpecialsExecuted counts remote commands run.
	SpecialsExecuted int
	// Recoveries counts completed §IV clock recoveries.
	Recoveries int
}

// Station is one deployed station runtime driving a core.Node.
type Station struct {
	node *core.Node
	cfg  Config
	srv  *server.Server

	// Base-station extras.
	channel *comms.ProbeChannel
	probes  []*probe.Probe
	fetcher *protocol.NackFetcher

	spool *storage.Spool
	rec   *recovery.Coordinator

	state    power.State
	stats    Stats
	cur      *RunReport
	runStart time.Time
	wdID     mcu.AlarmID

	pendingOutputs  []server.SpecialOutput
	onReport        []func(RunReport)
	reports         []RunReport
	rs232Health     float64
	watchdogArmedAt time.Time
	// dayReadings collects the day's fetched readings for cfg.Priority
	// (only when it is set) and is reused from day to day.
	dayReadings []probe.Reading

	// Bound-once daily work (see initWork): the Fig 4 sequence enqueues the
	// same jobs every simulated day, so their compute-at-start closures,
	// alarm callbacks and method values are built a single time at
	// construction instead of once per day (or per chained continuation).
	dailyWakeFn    func(rtcNow time.Time)
	watchdogFn     func(rtcNow time.Time)
	gpsReadFn      func(rtcNow time.Time)
	gpsOffFn       func(rtcNow time.Time)
	mcuReadingsFn  workFn
	gpsDrainFn     workFn
	packageFn      workFn
	attachFn       workFn
	uploadStateFn  workFn
	uploadFn       workFn
	specialOutFn   workFn
	overrideFn     workFn
	getSpecialFn   workFn
	earlySpecialFn workFn
	finishFn       workFn
	probeJobs      []probeJob
	// commsLocal is the power state being reported in the current comms
	// session (set when the session is queued, read when the state-upload
	// job applies).
	commsLocal power.State
}

// workFn is the compute-at-start job shape the station feeds the Gumstix:
// run at job start, return the simulated duration, optionally a completion
// function.
type workFn = func(now time.Time) (time.Duration, func(now time.Time))

// probeJob is a cached per-probe fetch job (name plus bound work closure).
type probeJob struct {
	name string
	work workFn
}

// New builds a station runtime on a node. srv is the Southampton server
// (reached over the node's GPRS modem); probes and channel may be nil for a
// reference station.
func New(node *core.Node, srv *server.Server, channel *comms.ProbeChannel, probes []*probe.Probe, cfg Config) *Station {
	if cfg.Role == 0 {
		cfg.Role = RoleBase
	}
	s := &Station{
		node:        node,
		cfg:         cfg,
		srv:         srv,
		channel:     channel,
		probes:      probes,
		spool:       storage.NewSpool(),
		state:       initialState,
		rs232Health: nominalRS232,
		fetcher:     protocol.NewNackFetcher(protocol.DefaultNackConfig()),
	}
	s.rec = recovery.New(node.MCU, node.GPS, s.afterRecovery)
	s.initWork()

	node.MCU.OnBoot(func(rtcNow time.Time, cold bool) {
		// Warm boots mean the battery died and came back: §IV applies.
		if s.rec.CheckAndRecover() {
			return
		}
		s.writeSchedule(rtcNow)
	})
	node.Host.OnBoot(s.onGumstixBoot)

	// Cold start: the bench-set clock is correct; record it and schedule.
	now := node.MCU.Now()
	node.MCU.SetLastRun(now)
	s.writeSchedule(now)
	return s
}

// Node returns the underlying hardware node.
func (s *Station) Node() *core.Node { return s.node }

// Name returns the station's fleet-unique name (the node name, which is
// also how the Southampton server knows it).
func (s *Station) Name() string { return s.node.Name }

// Role returns the station's configured role.
func (s *Station) Role() Role { return s.cfg.Role }

// State returns the station's current effective power state.
func (s *Station) State() power.State { return s.state }

// Stats returns a copy of lifetime counters.
func (s *Station) Stats() Stats { return s.stats }

// Spool exposes the upload spool (tests, experiments).
func (s *Station) Spool() *storage.Spool { return s.spool }

// Recovery exposes the §IV coordinator's stats.
func (s *Station) Recovery() recovery.Stats { return s.rec.Stats() }

// Reports returns all daily run reports, oldest first.
func (s *Station) Reports() []RunReport {
	out := make([]RunReport, len(s.reports))
	copy(out, s.reports)
	return out
}

// OnReport registers a callback fired at the end of every daily run.
func (s *Station) OnReport(fn func(RunReport)) { s.onReport = append(s.onReport, fn) }

// SetRS232Health adjusts the dGPS drain-rate fraction (fault injection).
func (s *Station) SetRS232Health(f float64) { s.rs232Health = f }

// afterRecovery is the §IV completion hook: restart in state 0 with a
// fresh schedule.
//
//glacvet:hotpath
func (s *Station) afterRecovery(rtcNow time.Time) {
	s.state = power.State0
	s.stats.Recoveries++
	s.writeSchedule(rtcNow)
}

// writeSchedule (re)writes the RAM schedule: the next midday wake and the
// dGPS duty cycle for the current state. Everything here is lost on power
// failure, exactly like the real MSP430.
//
//glacvet:hotpath
func (s *Station) writeSchedule(rtcNow time.Time) {
	m := s.node.MCU
	wake := simenv.NextMidday(rtcNow)
	m.AlarmAt(wake, "daily-wake", s.dailyWakeFn)
	s.scheduleGPS(rtcNow)
}

// scheduleGPS arms the next 24 h of dGPS readings per the current plan.
// The microcontroller owns dGPS timing — "the execution of software on the
// Gumstix does not cause drift in the timings of the dGPS".
//
//glacvet:hotpath
func (s *Station) scheduleGPS(rtcNow time.Time) {
	m := s.node.MCU
	plan := power.PlanFor(s.state)
	n := plan.GPSReadingsPerDay
	if n <= 0 {
		return
	}
	interval := 24 * time.Hour / time.Duration(n)
	// First reading at the next whole interval boundary after now; a
	// single daily reading lands at 11:00 so the file is ready for the
	// midday window.
	start := simenv.StartOfDay(rtcNow).Add(11 * time.Hour)
	if n > 1 {
		start = simenv.StartOfDay(rtcNow)
	}
	for start.Before(rtcNow.Add(time.Minute)) {
		start = start.Add(interval)
	}
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(i) * interval)
		m.AlarmAt(at, "gps-reading", s.gpsReadFn)
	}
}

// dailyWake is the midday MCU alarm: power the Gumstix, arm the watchdog,
// and schedule tomorrow's wake so a crashed run cannot lose the schedule.
//
//glacvet:hotpath
func (s *Station) dailyWake(rtcNow time.Time) {
	m := s.node.MCU
	if !m.Alive() {
		return
	}
	s.stats.Runs++
	s.cur = &RunReport{Date: rtcNow, Override: -1}
	s.runStart = rtcNow
	s.watchdogArmedAt = rtcNow

	// Tomorrow's schedule first: resilience over elegance.
	m.AlarmAt(simenv.NextMidday(rtcNow), "daily-wake", s.dailyWakeFn)

	// The §VI watchdog: no run may exceed two hours.
	s.wdID = m.AlarmAfter(watchdogLimit, "watchdog", s.watchdogFn)

	m.SetRail(gumstix.Rail, true)
}

// onGumstixBoot queues the Fig 4 daily sequence.
//
//glacvet:hotpath
func (s *Station) onGumstixBoot(now time.Time) {
	if s.cur == nil { // booted outside a daily run (tests/experiments)
		return
	}
	if s.cfg.SpecialFirst {
		// The paper's suggested fix: remote code runs before any transfer.
		s.enqueueEarlySpecial()
	}
	if s.cfg.Role == RoleBase {
		s.enqueueProbeJobs()
	}
	s.enqueueMCUReadings()
	// The rest of the chain is decided after the power state is known; see
	// continueAfterPowerState.
}

// remainingWindow returns how much of the watchdog window is left, minus a
// small safety margin for the finish step.
func (s *Station) remainingWindow(now time.Time) time.Duration {
	elapsed := now.Sub(s.watchdogArmedAt)
	left := watchdogLimit - elapsed - 5*time.Minute
	if left < 0 {
		return 0
	}
	return left
}

func (s *Station) host() *gumstix.Host { return s.node.Host }

// enqueueWork queues the compute-at-start pattern: work runs when the job
// starts, returning the simulated duration it occupies; apply fires at
// completion. The host handles the pattern natively (Job.Work), so no
// wrapper closures are built here.
//
//glacvet:hotpath
func (s *Station) enqueueWork(name string, work workFn) {
	s.host().Enqueue(gumstix.Job{Name: name, Work: work})
}

// enqueueWorkFront is enqueueWork at the head of the queue — for chained
// continuations that must finish before later phases of the day run.
//
//glacvet:hotpath
func (s *Station) enqueueWorkFront(name string, work workFn) {
	s.host().EnqueueFront(gumstix.Job{Name: name, Work: work})
}
