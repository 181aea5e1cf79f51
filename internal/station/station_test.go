package station

import (
	"strings"
	"testing"
	"time"

	"repro/internal/comms"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/server"
	"repro/internal/simenv"
	"repro/internal/weather"
)

// rig is a single-station test harness.
type rig struct {
	sim *simenv.Simulator
	wx  *weather.Model
	srv *server.Server
	st  *Station
}

type rigOpts struct {
	seed      int64
	start     time.Time
	soc       float64
	chargers  []energy.Charger
	probes    int
	cfg       Config
	noWeather bool
}

func newRig(t *testing.T, o rigOpts) *rig {
	t.Helper()
	if o.seed == 0 {
		o.seed = 1
	}
	if o.start.IsZero() {
		o.start = time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC)
	}
	if o.soc == 0 {
		o.soc = 0.95
	}
	sim := simenv.NewAt(o.seed, o.start)
	var wx *weather.Model
	if !o.noWeather {
		wx = weather.New(o.seed)
	}
	srv := server.New()

	ncfg := core.BaseStationConfig("base")
	ncfg.Battery.InitialSoC = o.soc
	if o.chargers != nil {
		ncfg.Chargers = o.chargers
	}
	node := core.NewNode(sim, wx, ncfg)

	var channel *comms.ProbeChannel
	var probes []*probe.Probe
	if o.probes > 0 {
		channel = comms.NewProbeChannel(sim, wx)
		for i := 0; i < o.probes; i++ {
			pcfg := probe.DefaultConfig(21 + i)
			pcfg.MeanLifetime = 50 * 365 * 24 * time.Hour
			probes = append(probes, probe.New(sim, wx, pcfg))
		}
	}
	st := New(node, srv, channel, probes, o.cfg)
	return &rig{sim: sim, wx: wx, srv: srv, st: st}
}

func (r *rig) runDays(t *testing.T, days int) {
	t.Helper()
	if err := r.sim.RunFor(time.Duration(days) * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
}

func TestDailyRunHappensAtMidday(t *testing.T) {
	r := newRig(t, rigOpts{probes: 2})
	r.runDays(t, 3)
	reps := r.st.Reports()
	if len(reps) != 3 {
		t.Fatalf("%d reports after 3 days, want 3", len(reps))
	}
	for _, rep := range reps {
		if rep.Date.Hour() != 12 {
			t.Fatalf("run started at hour %d, want 12 (midday UTC window)", rep.Date.Hour())
		}
	}
	if r.st.Node().Host.Powered() {
		t.Fatal("Gumstix still powered between windows")
	}
}

func TestFig4JobOrder(t *testing.T) {
	r := newRig(t, rigOpts{probes: 1})
	var jobs []string
	r.sim.OnEvent(func(name string, _ time.Time) {
		if strings.HasPrefix(name, "base.gumstix.job.") {
			jobs = append(jobs, strings.TrimPrefix(name, "base.gumstix.job."))
		}
	})
	r.runDays(t, 1)

	want := []string{"probe-fetch-21", "mcu-readings", "gps-drain", "package-data",
		"gprs-attach", "upload-state", "upload-data", "upload-special-outputs",
		"get-override", "get-special", "finish"}
	pos := map[string]int{}
	for i, j := range jobs {
		if _, seen := pos[j]; !seen {
			pos[j] = i
		}
	}
	prev := -1
	for _, name := range want {
		p, ok := pos[name]
		if !ok {
			t.Fatalf("job %q never ran (saw %v)", name, jobs)
		}
		if p < prev {
			t.Fatalf("job %q ran out of order: positions %v", name, pos)
		}
		prev = p
	}
}

func TestState0SkipsComms(t *testing.T) {
	r := newRig(t, rigOpts{soc: 0.02, chargers: []energy.Charger{}, noWeather: true})
	r.runDays(t, 1)
	reps := r.st.Reports()
	if len(reps) != 1 {
		t.Fatalf("%d reports", len(reps))
	}
	rep := reps[0]
	if rep.LocalState != power.State0 {
		t.Fatalf("local state %v at 2%% charge with no chargers; the test needs state 0", rep.LocalState)
	}
	if rep.CommsOK || rep.OverrideFetched {
		t.Fatal("state-0 day still used GPRS")
	}
	if rep.GPSFilesDrained != 0 {
		t.Fatal("state-0 day drained GPS files")
	}
	if _, ok := r.srv.Station("base"); ok {
		t.Fatal("server heard from a state-0 station")
	}
}

func TestProbeDataFetchedAndSpooled(t *testing.T) {
	r := newRig(t, rigOpts{probes: 3})
	r.runDays(t, 2)
	reps := r.st.Reports()
	if reps[0].ProbeReadings == 0 {
		t.Fatal("no probe readings on day 1")
	}
	// Completion: winter channel fetch should mark probes complete.
	total := 0
	for _, rep := range reps {
		total += rep.ProbeReadings
	}
	// Day 1 fetches the 12 h accumulated since deployment; day 2 a full
	// day: (12+24) h × 3 probes = 108 readings.
	if total < 100 {
		t.Fatalf("fetched %d probe readings over 2 days of 3 hourly probes", total)
	}
}

func TestStateUploadedAndOverrideApplied(t *testing.T) {
	r := newRig(t, rigOpts{probes: 1})
	// Pin the override below what the battery allows.
	r.srv.SetManualOverride("base", power.State1)
	r.runDays(t, 2)
	reps := r.st.Reports()
	last := reps[len(reps)-1]
	if !last.OverrideFetched {
		t.Fatal("override never fetched: comms failed on the last day, and the test needs a fetched override")
	}
	if last.Override != power.State1 {
		t.Fatalf("override %v, want manual State1", last.Override)
	}
	if last.Effective != power.State1 {
		t.Fatalf("effective %v, want State1 (held down by server)", last.Effective)
	}
	if r.st.State() != power.State1 {
		t.Fatalf("station state %v", r.st.State())
	}
}

func TestCommsFailureFallsBackToLocalState(t *testing.T) {
	r := newRig(t, rigOpts{probes: 0})
	r.srv.SetManualOverride("base", power.State1)
	var fallbackSeen bool
	r.st.OnReport(func(rep RunReport) {
		if !rep.OverrideFetched && rep.Effective == rep.LocalState {
			fallbackSeen = true
		}
	})
	r.runDays(t, 60)
	if !fallbackSeen {
		t.Fatal("no comms-failure day fell back to the local state in 60 days; the test needs one")
	}
}

func TestSpoolRetainedAcrossCommsFailure(t *testing.T) {
	r := newRig(t, rigOpts{probes: 1})
	failedDay := false
	recoveredAfterFail := false
	var pendingAfterFail int
	r.st.OnReport(func(rep RunReport) {
		if !rep.CommsOK && !failedDay {
			failedDay = true
			pendingAfterFail = r.st.Spool().Len()
			return
		}
		if failedDay && rep.CommsOK && rep.UploadedBytes > 0 {
			recoveredAfterFail = true
		}
	})
	r.runDays(t, 90)
	if !failedDay {
		t.Fatal("no comms failure in 90 days; the test needs one")
	}
	if pendingAfterFail == 0 {
		t.Fatal("comms-failure day left an empty spool (data vanished)")
	}
	if !recoveredAfterFail {
		t.Fatal("spooled data never uploaded after the failure")
	}
}

func TestWatchdogTripsOnHugeBacklogAndBacklogClears(t *testing.T) {
	r := newRig(t, rigOpts{probes: 0})
	// ~21 days of state-3 backlog appears at once (the paper's threshold).
	r.st.Node().GPS.InjectBacklog(21 * 12)
	start := r.st.Node().GPS.FileCount()
	r.runDays(t, 1)
	rep := r.st.Reports()[0]
	if rep.GPSFilesDrained == 0 {
		t.Fatal("no files drained on day 1")
	}
	if rep.GPSFilesDrained >= start {
		t.Fatalf("entire %d-file backlog drained in one 2 h window", start)
	}
	// "Over the course of a few days the backlog will be cleared."
	r.runDays(t, 14)
	if got := r.st.Node().GPS.FileCount(); got > 12 {
		t.Fatalf("backlog still %d files after two weeks", got)
	}
}

func TestSingleFileDeadlockWithoutFixAndRescueWithFix(t *testing.T) {
	// Degraded RS-232: one 165 KB file takes >2 h, so the as-deployed
	// ordering can never make progress — §VI's "no progress could ever be
	// made".
	deadlocked := func(specialFirst bool, rescue bool) int {
		r := newRig(t, rigOpts{probes: 0, cfg: Config{Role: RoleBase, SpecialFirst: specialFirst}, seed: 5})
		r.st.SetRS232Health(0.002) // ~4 h per 165 KB file: exceeds any window
		r.st.Node().GPS.InjectBacklog(5)
		injected := make(map[uint64]bool)
		for _, f := range r.st.Node().GPS.Files() {
			injected[f.ID] = true
		}
		if rescue {
			r.srv.PushSpecial("base", "set-rs232 1.0")
		}
		r.runDays(t, 6)
		left := 0
		for _, f := range r.st.Node().GPS.Files() {
			if injected[f.ID] {
				left++
			}
		}
		return left
	}
	// Without intervention: stuck — the injected files never move.
	if left := deadlocked(false, false); left != 5 {
		t.Fatalf("backlog shrank to %d despite a dead cable", left)
	}
	// With the special-first fix and a rescue command: drains.
	if left := deadlocked(true, true); left != 0 {
		t.Fatalf("rescue special did not unblock the drain: %d stuck files left", left)
	}
}

func TestSpecialOutputArrivesNextDay(t *testing.T) {
	r := newRig(t, rigOpts{probes: 0})
	r.srv.PushSpecial("base", "noop")
	r.runDays(t, 4)
	outs := r.srv.SpecialOutputs()
	if len(outs) == 0 {
		t.Fatal("special output never reached the server in 4 days; the test needs one")
	}
	lag := outs[0].ReceivedAt.Sub(outs[0].ExecutedAt)
	// As deployed: executed after upload, output rides the *next* day's
	// session — §VI's 24 h feedback delay.
	if lag < 20*time.Hour || lag > 56*time.Hour {
		t.Fatalf("special output lag %v, want ~24-48 h (as-deployed ordering)", lag)
	}
}

func TestSpecialFirstShortensFeedback(t *testing.T) {
	cfg := Config{Role: RoleBase, SpecialFirst: true}
	r := newRig(t, rigOpts{probes: 0, cfg: cfg})
	r.srv.PushSpecial("base", "noop")
	r.runDays(t, 4)
	outs := r.srv.SpecialOutputs()
	if len(outs) == 0 {
		t.Fatal("special output never reached the server in 4 days; the test needs one")
	}
	lag := outs[0].ReceivedAt.Sub(outs[0].ExecutedAt)
	if lag > 4*time.Hour {
		t.Fatalf("special-first lag %v, want same-session feedback", lag)
	}
}

func TestStatusSpecialReportsState(t *testing.T) {
	r := newRig(t, rigOpts{probes: 0})
	out := r.st.runSpecial("status")
	if !strings.Contains(out, "soc=") || !strings.Contains(out, "state=") {
		t.Fatalf("status output %q", out)
	}
}

func TestUnknownSpecialErrors(t *testing.T) {
	r := newRig(t, rigOpts{probes: 0})
	out := r.st.runSpecial("rm -rf /")
	if !strings.HasPrefix(out, "error:") {
		t.Fatalf("unknown special output %q", out)
	}
}

func TestSetStateSpecialClamped(t *testing.T) {
	r := newRig(t, rigOpts{probes: 0})
	// Forcing state 0 remotely must clamp to 1 (§III safety).
	_ = r.st.runSpecial("set-state 0")
	if r.st.State() == power.State0 {
		t.Fatal("remote command forced state 0")
	}
}

func TestRecoveryAfterTotalDepletion(t *testing.T) {
	// Strong summer sun so the battery recovers quickly after exhaustion.
	r := newRig(t, rigOpts{
		seed:  3,
		start: time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC),
		soc:   0.12,
		chargers: []energy.Charger{
			energy.NewSolarPanel(60),
		},
	})
	// A stuck heater drains the battery to exhaustion.
	r.st.Node().Bus.SetLoad("stuck-heater", 40)
	r.runDays(t, 2)
	if r.st.Node().Bus.FailCount() == 0 { // a failed bus has counted its failure
		t.Fatal("battery did not deplete")
	}
	r.runDays(t, 20)
	if r.st.Node().Bus.FailCount() == 0 {
		t.Fatal("no power failure recorded")
	}
	rec := r.st.Recovery()
	if rec.Triggered == 0 {
		t.Fatal("clock check never flagged the reset RTC")
	}
	if rec.Recovered == 0 {
		t.Fatal("no recovery completed: the GPS time fix never succeeded in 22 days, and the test needs one")
	}
	// §IV: "the system will set the schedule to state 0 ... and will then
	// proceed as normal" — runs resume after recovery.
	if r.st.Stats().Recoveries == 0 {
		t.Fatal("station recovery hook never fired")
	}
	m := r.st.Node().MCU
	if e := m.ClockError(); e < -time.Minute || e > time.Minute {
		t.Fatalf("clock error %v after GPS resync", e)
	}
	if r.st.Stats().Runs == 0 {
		t.Fatal("no daily runs after recovery")
	}
}

func TestReferenceStationHasNoProbeJobs(t *testing.T) {
	cfg := Config{Role: RoleReference}
	r := newRig(t, rigOpts{probes: 0, cfg: cfg})
	var jobs []string
	r.sim.OnEvent(func(name string, _ time.Time) {
		if strings.HasPrefix(name, "base.gumstix.job.probe-fetch") {
			jobs = append(jobs, name)
		}
	})
	r.runDays(t, 2)
	if len(jobs) != 0 {
		t.Fatalf("reference station ran probe jobs: %v", jobs)
	}
}

func TestGPSScheduleFollowsState(t *testing.T) {
	r := newRig(t, rigOpts{probes: 0})
	r.srv.SetManualOverride("base", power.State1) // no GPS in state 1
	r.runDays(t, 2)                               // adopt the override
	// A reading lands on the unit's card; the daily runs drain files off
	// it. Files recorded = growth of the card + files drained.
	gps := r.st.Node().GPS
	before, drained := gps.FileCount(), 0
	r.st.OnReport(func(rep RunReport) { drained += rep.GPSFilesDrained })
	r.runDays(t, 2)
	if r.st.State() != power.State1 {
		t.Fatalf("station in %v, not the overridden state 1; the test needs the override adopted", r.st.State())
	}
	if took := gps.FileCount() - before + drained; took != 0 {
		t.Fatalf("dGPS took %d readings in state 1, want none", took)
	}
}

func TestRunReportWallElapsedBounded(t *testing.T) {
	r := newRig(t, rigOpts{probes: 2})
	r.runDays(t, 10)
	for _, rep := range r.st.Reports() {
		if rep.WallElapsed > 2*time.Hour+time.Minute {
			t.Fatalf("run on %v lasted %v, watchdog limit is 2 h", rep.Date, rep.WallElapsed)
		}
	}
}

// §VI log-volume lesson: chatty per-reading debug output makes the first
// contact in months produce a huge log upload ("over 1 megabyte of log
// data can be produced"), while routine days stay small.
func TestLogVolumeScalesWithReadingsFetched(t *testing.T) {
	r := newRig(t, rigOpts{probes: 1})
	var logSizes []int64
	r.st.OnReport(func(rep RunReport) {
		logSizes = append(logSizes, logBaseBytes+logPerReadingBytes*int64(rep.ProbeReadings))
	})
	r.runDays(t, 2)
	if len(logSizes) < 2 {
		t.Fatal("need two runs")
	}
	// A routine 24-reading day logs ~5 KB; the first contact after a
	// winter offline, ~3000 readings from each of the seven deployed
	// probes, logs over a megabyte — the paper's lesson.
	routine := logSizes[1]
	if routine > 64*1024 {
		t.Fatalf("routine day logs %d bytes, should be small", routine)
	}
	firstContact := logBaseBytes + logPerReadingBytes*7*3000
	if firstContact < 1_000_000 {
		t.Fatalf("first contact logs only %d bytes; lesson not reproducible", firstContact)
	}
}

// The watchdog alarm is cancelled on a clean finish: a short run must not
// have its *next* day cut short by a stale watchdog.
func TestWatchdogCancelledOnCleanFinish(t *testing.T) {
	r := newRig(t, rigOpts{probes: 1})
	r.runDays(t, 5)
	if r.st.Stats().WatchdogTrips != 0 {
		t.Fatalf("watchdog tripped %d times on routine 10-minute runs", r.st.Stats().WatchdogTrips)
	}
	for _, rep := range r.st.Reports() {
		if rep.WatchdogTripped {
			t.Fatalf("routine run on %v marked tripped", rep.Date)
		}
	}
}
