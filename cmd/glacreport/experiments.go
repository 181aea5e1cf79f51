package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/comms"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/energy"
	"repro/internal/hw/dgps"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/simenv"
	"repro/internal/station"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/update"
	"repro/internal/weather"
)

// expBulkFetch compares the three fetch configurations on winter and summer
// channels against the §V field numbers (3000 readings, ~400 missed).
func expBulkFetch(w io.Writer, seed int64) error {
	scenario := func(summer bool) (*simenv.Simulator, *comms.ProbeChannel, *probe.Probe, error) {
		start := time.Date(2008, 9, 1, 0, 0, 0, 0, time.UTC) // fetch lands in dry winter
		if summer {
			start = time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC) // fetch lands in July melt
		}
		wx := weather.New(seed)
		sim := simenv.NewAt(seed, start)
		cfg := probe.DefaultConfig(21)
		cfg.MeanLifetime = 50 * 365 * 24 * time.Hour
		pr := probe.New(sim, wx, cfg)
		if err := sim.RunFor(125 * 24 * time.Hour); err != nil {
			return nil, nil, nil, err
		}
		return sim, comms.NewProbeChannel(sim, wx), pr, nil
	}

	type fetchFn func(sim *simenv.Simulator, ch *comms.ProbeChannel, pr *probe.Probe) protocol.Result
	nack := func(cfg protocol.NackConfig) fetchFn {
		return func(sim *simenv.Simulator, ch *comms.ProbeChannel, pr *probe.Probe) protocol.Result {
			return protocol.NewNackFetcher(cfg).Fetch(sim.Now(), ch, pr, 6*time.Hour, nil)
		}
	}
	ack := func(sim *simenv.Simulator, ch *comms.ProbeChannel, pr *probe.Probe) protocol.Result {
		return protocol.NewAckFetcher().Fetch(sim.Now(), ch, pr, 6*time.Hour, nil)
	}

	var rows [][]string
	for _, season := range []struct {
		name   string
		summer bool
	}{{"winter", false}, {"summer", true}} {
		for _, proto := range []struct {
			name string
			fn   fetchFn
		}{
			{"nack (as deployed)", nack(protocol.DefaultNackConfig())},
			{"nack (limit removed)", nack(protocol.FixedNackConfig())},
			{"stop-and-wait ack", ack},
		} {
			sim, ch, pr, err := scenario(season.summer)
			if err != nil {
				return err
			}
			res := proto.fn(sim, ch, pr)
			status := "complete"
			if errors.Is(res.Err, protocol.ErrNackOverflow) {
				status = "ABORTED (field bug)"
			} else if res.Err != nil {
				status = res.Err.Error()
			}
			rows = append(rows, []string{
				season.name, proto.name,
				fmt.Sprintf("%d", len(res.Got)),
				fmt.Sprintf("%d", res.MissedFirstPass),
				fmt.Sprintf("%d", res.Nacked),
				fmt.Sprintf("%.1f", res.Elapsed.Minutes()),
				fmt.Sprintf("%.0f", float64(res.AirBytes)/1024),
				status,
			})
		}
	}
	fmt.Fprint(w, trace.Table([]string{"Season", "Protocol", "Got", "Missed 1st", "NACKs",
		"Min on air", "KB on air", "Outcome"}, rows))
	fmt.Fprintln(w, "\npaper: ~3000 readings in the summer fetch, ~400 missed packets, the")
	fmt.Fprintln(w, "individual re-request process \"could fail\" — and did, beyond 256 NACKs.")
	return nil
}

// expWatchdog reproduces the §VI backlog arithmetic: the dGPS backlog sizes
// that exceed one two-hour window, the file-by-file multi-day drain, and
// the single-file deadlock with its special-first rescue.
func expWatchdog(w io.Writer, seed int64) error {
	perFile := dgps.File{SizeBytes: dgps.BaseReadingBytes}.TransferTime(1)
	fmt.Fprintf(w, "RS-232 drain: %.0f s per 165 KB reading\n", perFile.Seconds())
	var rows [][]string
	for _, c := range []struct {
		label string
		files int
	}{
		{"1 day, state 3", 12},
		{"7 days, state 3", 84},
		{"21 days, state 3 (paper threshold)", 21 * 12},
		{"259 days, state 2 (paper threshold)", 259},
		{"300 days, state 2", 300},
	} {
		total := time.Duration(c.files) * perFile
		fits := "fits"
		if total > 2*time.Hour {
			fits = "EXCEEDS 2 h window"
		}
		rows = append(rows, []string{c.label, fmt.Sprintf("%d", c.files),
			fmt.Sprintf("%.1f h", total.Hours()), fits})
	}
	fmt.Fprint(w, trace.Table([]string{"Backlog", "Files", "Drain time", "vs watchdog"}, rows))

	// Multi-day drain of the 21-day backlog on a live station.
	mk := func(specialFirst bool, faults ...deploy.Fault) (*deploy.Deployment, error) {
		spec := deploy.BaseSpec("base", 0)
		spec.Runtime = station.Config{SpecialFirst: specialFirst}
		return deploy.Build(deploy.Topology{
			Seed:     seed,
			Start:    time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC),
			Stations: []deploy.StationSpec{spec},
			Faults:   faults,
		})
	}
	d, err := mk(false)
	if err != nil {
		return err
	}
	gps := d.Stations[0].Node().GPS
	gps.InjectBacklog(21 * 12)
	days := 0
	for gps.FileCount() > 12 && days < 30 {
		if err := d.RunDays(1); err != nil {
			return err
		}
		days++
	}
	fmt.Fprintf(w, "\nlive station with a 252-file backlog: cleared in %d daily windows\n", days)

	// The deadlock and its rescue, one table row per ordering.
	rows = nil
	outcome := func(ordering, intervention string, specialFirst, rescue bool) error {
		d, err := mk(specialFirst, deploy.Fault{Station: "base", Kind: deploy.FaultRS232, Value: 0.002})
		if err != nil {
			return err
		}
		gps := d.Stations[0].Node().GPS
		gps.InjectBacklog(3)
		stuck := map[uint64]bool{}
		for _, f := range gps.Files() {
			stuck[f.ID] = true
		}
		if rescue {
			d.Server.PushSpecial("base", "set-rs232 1.0")
		}
		if err := d.RunDays(5); err != nil {
			return err
		}
		left := 0
		for _, f := range gps.Files() {
			if stuck[f.ID] {
				left++
			}
		}
		out := "drained"
		if left > 0 {
			out = fmt.Sprintf("DEADLOCK (%d/3 stuck after 5 days)", left)
		}
		rows = append(rows, []string{ordering, intervention, out})
		return nil
	}
	if err := errors.Join(
		outcome("as deployed (special after upload)", "none", false, false),
		outcome("as deployed (special after upload)", "set-rs232 special", false, true),
		outcome("fixed (special before transfer)", "set-rs232 special", true, true),
	); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nintermittent RS-232 cable (one file > 2 h):")
	fmt.Fprint(w, trace.Table([]string{"Ordering", "Remote intervention", "Outcome"}, rows))
	fmt.Fprintln(w, "\npaper: \"it is suggested that the execution of remote code is performed")
	fmt.Fprintln(w, "before the data is transferred\" — only that ordering lets the rescue land.")
	return nil
}

// expSyncLag measures how long a state change at Southampton takes to reach
// the stations (§III: same-day when it lands before the window, a one-day
// lag otherwise, plus any days lost to failed GPRS sessions). The 3-seed x
// 2-timing grid (internal/campaign, shared with the campaign runner and
// the worker daemons) runs on the sweep engine; the set-hour axis is a
// label-only override the custom driver interprets.
func expSyncLag(w io.Writer, seed int64) error {
	sum, err := sweep.Run(campaign.SyncLagGrid(seed, 3), 0)
	if err != nil {
		return err
	}

	var rows [][]string
	for _, cr := range sum.Cells {
		if cr.Err != "" {
			return fmt.Errorf("cell %s: %s", cr.Cell.Label(), cr.Err)
		}
		b, _ := cr.Metric("base-lag-days")
		r, _ := cr.Metric("ref-lag-days")
		fails, _ := cr.Metric("failed-sessions")
		rows = append(rows, []string{cr.Cell.Override, fmt.Sprintf("seed %d", cr.Cell.Seed),
			fmt.Sprintf("%.0f", b), fmt.Sprintf("%.0f", r), fmt.Sprintf("%.0f", fails)})
	}
	fmt.Fprint(w, trace.Table([]string{"Change timing", "Trial", "Base lag (days)",
		"Ref lag (days)", "Failed sessions while waiting"}, rows))

	rows = rows[:0]
	for _, gr := range sum.Groups {
		for _, name := range []string{"base-lag-days", "ref-lag-days", "failed-sessions"} {
			if st, ok := gr.Stat(name); ok {
				rows = append(rows, []string{gr.Override, name,
					fmt.Sprintf("%.2f", st.Mean), fmt.Sprintf("%.2f", st.Stddev)})
			}
		}
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, trace.Table([]string{"Change timing", "Metric", "Mean over seeds", "Stddev"}, rows))
	fmt.Fprintln(w, "\nbefore-window changes land the same day (lag 0). After-window changes")
	fmt.Fprintln(w, "usually wait for tomorrow (lag 1) — but a station still uploading a")
	fmt.Fprintln(w, "backlog queries the override late and can pick the change up the same")
	fmt.Fprintln(w, "day, exactly the timing-variation effect §III describes. Extra days")
	fmt.Fprintln(w, "trace one-for-one to failed GPRS sessions.")
	return nil
}

// expRecovery forces total depletion and reports the §IV recovery sequence.
func expRecovery(w io.Writer, seed int64) error {
	spec := deploy.BaseSpec("base", 0)
	hw := core.BaseStationConfig("base")
	hw.Battery.InitialSoC = 0.15
	hw.Chargers = []energy.Charger{energy.NewSolarPanel(60)}
	spec.Hardware = &hw
	d, err := deploy.Build(deploy.Topology{
		Seed:     seed,
		Start:    time.Date(2009, 5, 1, 0, 0, 0, 0, time.UTC),
		Stations: []deploy.StationSpec{spec},
		Faults:   []deploy.Fault{{Kind: deploy.FaultStuckLoad, Value: 30}}, // the hung-transfer failure mode
	})
	if err != nil {
		return err
	}
	if err := d.RunDays(3); err != nil {
		return err
	}
	failedAt := d.Sim.Now()
	if err := d.RunDays(25); err != nil {
		return err
	}

	st := d.Stations[0]
	rec := st.Recovery()
	rows := [][]string{
		{"total power failures", fmt.Sprintf("%d", st.Node().Bus.FailCount())},
		{"RTC-reset detections (clock < last-run)", fmt.Sprintf("%d", rec.Triggered)},
		{"GPS time-fix attempts", fmt.Sprintf("%d", rec.FixAttempts)},
		{"failed fixes (slept a day, retried)", fmt.Sprintf("%d", rec.FixFailures)},
		{"completed recoveries (restart in state 0)", fmt.Sprintf("%d", rec.Recovered)},
		{"daily runs resumed", yesNo(st.Stats().Runs > 0)},
		{"clock error after recovery", st.Node().MCU.ClockError().Round(time.Second).String()},
	}
	fmt.Fprint(w, trace.Table([]string{"Metric", "Value"}, rows))
	fmt.Fprintf(w, "\n(battery exhausted around %s; summer sun recharged it)\n", failedAt.Format("2006-01-02"))
	return nil
}

// expSurvival Monte-Carlos probe cohorts against the §V field outcome.
func expSurvival(w io.Writer) error {
	year := 365 * 24 * time.Hour
	mean := time.Duration(1.8 * float64(year))
	const cohorts = 2000
	var y1, y15 float64
	for s := int64(0); s < cohorts; s++ {
		y1 += probe.Survival(s, 7, mean, year)
		y15 += probe.Survival(s, 7, mean, year+year/2)
	}
	rows := [][]string{
		{"1 year", fmt.Sprintf("%.2f", y1/cohorts*7), "4/7"},
		{"18 months", fmt.Sprintf("%.2f", y15/cohorts*7), "2 (producing data)"},
	}
	fmt.Fprint(w, trace.Table([]string{"Horizon", "Mean survivors of 7 (sim)", "Paper"}, rows))
	fmt.Fprintf(w, "\nexponential survival, mean life %.1f years, %d simulated cohorts\n",
		float64(mean)/float64(year), cohorts)
	return nil
}

// expUpdate measures remote-update feedback latency with and without the
// MD5 beacon, across clean and corrupted transfers.
func expUpdate(w io.Writer, seed int64) error {
	srv := server.New()
	ins := update.NewInstaller()
	now := time.Date(2009, 10, 1, 12, 0, 0, 0, time.UTC)
	v2 := update.Artifact{Name: "fetcher.py", Version: "v2", Payload: []byte("new code, no nack limit")}
	m := update.ManifestFor(v2)

	var rows [][]string
	for i, c := range []struct {
		label   string
		corrupt bool
		beacon  bool
	}{
		{"clean transfer, MD5 beacon", false, true},
		{"corrupted transfer, MD5 beacon", true, true},
		{"corrupted transfer, logs only", true, false},
	} {
		got := v2
		if c.corrupt {
			got = update.CorruptInTransit(v2, 0.2, func(b int) float64 {
				return simenv.HashNoise(seed+int64(i), "x8", uint64(b))
			})
		}
		var beacon update.Beacon
		feedback := "next day's logs (24-48 h)"
		if c.beacon {
			beacon = func(artifact, sum string) { srv.ReportMD5("base", artifact, sum, now) }
			feedback = "immediate (HTTP GET)"
		}
		err := ins.Install(got, m, now, beacon)
		outcome := "installed"
		if err != nil {
			outcome = "rejected, old version kept"
		}
		rows = append(rows, []string{c.label, outcome, feedback})
	}
	fmt.Fprint(w, trace.Table([]string{"Scenario", "Station outcome", "Southampton learns via"}, rows))
	fmt.Fprintf(w, "\nbeacons received by the server: %d\n", len(srv.MD5Reports()))
	fmt.Fprintln(w, "paper: the wget-GET beacon \"enables researchers to know immediately if")
	fmt.Fprintln(w, "the transfer was successful\" instead of waiting for the log round-trip.")
	return nil
}

// expFleet exercises the §III coordination rule at fleet scale: an
// 8-station scenario where one base's chargers are dead. Its low daily
// averages reach Southampton, and the min-rule holds every other station
// down — N stations synchronised with no inter-station link. The study is
// a 4-seed sweep of the fleet-N scenario with the fault injected as a grid
// override; the first seed is also shown station by station.
func expFleet(w io.Writer, seed int64) error {
	var mu sync.Mutex
	var detail [][]string
	var result deploy.Result
	g := campaign.FleetMinRuleGrid(seed, 4, 14)
	drive := g.Drive
	g.Drive = func(c sweep.Cell, d *deploy.Deployment) ([]sweep.Metric, []*trace.Series, error) {
		metrics, series, err := drive(c, d)
		if err == nil && c.Seed == seed {
			_, rows := campaign.FleetHeldRows(d)
			mu.Lock()
			detail, result = rows, d.Result()
			mu.Unlock()
		}
		return metrics, series, err
	}
	sum, err := sweep.Run(g, 0)
	if err != nil {
		return err
	}
	for _, cr := range sum.Cells {
		if cr.Err != "" {
			return fmt.Errorf("cell %s: %s", cr.Cell.Label(), cr.Err)
		}
	}

	fmt.Fprintf(w, "seed %d of the %d-seed sweep, station by station:\n\n", seed, len(sum.Cells))
	fmt.Fprint(w, trace.Table([]string{"Station", "Role", "Runs", "Days held below local state", "State now"}, detail))
	fmt.Fprintln(w)
	fmt.Fprint(w, result)

	var rows [][]string
	for _, cr := range sum.Cells {
		held, _ := cr.Metric("healthy-station-days-held")
		rows = append(rows, []string{fmt.Sprintf("seed %d", cr.Cell.Seed), fmt.Sprintf("%.0f", held)})
	}
	if st, ok := sum.Groups[0].Stat("healthy-station-days-held"); ok {
		rows = append(rows, []string{"mean ± stddev over seeds",
			fmt.Sprintf("%.1f ± %.1f", st.Mean, st.Stddev)})
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, trace.Table([]string{"Trial", "Healthy-station days held down"}, rows))
	fmt.Fprintln(w, "\n§III: the server answers every station with the minimum of the fleet's")
	fmt.Fprintln(w, "last-reported states — one weak battery throttles the whole fleet's dGPS")
	fmt.Fprintln(w, "duty cycle, with at most one day of lag and no base↔base radio link,")
	fmt.Fprintln(w, "on every seed of the sweep.")
	return nil
}

// expPriority demonstrates the §VII future-work extension: "enabling the
// base station to analyse the data collected and prioritise it, forcing
// communication even if the available power is marginal if the data
// warrants it". A deeply discharged station (state 0) receives a
// conductivity spike from a probe; without the extension the event waits
// for the battery, with it the event goes out the same day.
func expPriority(w io.Writer, seed int64) error {
	run := func(withPriority bool) (forced bool, uploadedB int64, state power.State, err error) {
		cfg := station.Config{Role: station.RoleBase}
		if withPriority {
			cfg.Priority = station.NewConductivitySpikeEvaluator()
		}
		sim := simenv.NewAt(seed, time.Date(2009, 7, 1, 0, 0, 0, 0, time.UTC))
		wx := weather.New(seed)
		srv := server.New()
		ncfg := core.BaseStationConfig("base")
		ncfg.Battery.InitialSoC = 0.02 // marginal power: local state 0
		ncfg.Chargers = nil
		node := core.NewNode(sim, wx, ncfg)
		ch := comms.NewProbeChannel(sim, wx)
		pcfg := probe.DefaultConfig(21)
		pcfg.BaseConductivityUS = 4
		pcfg.MeltConductivityUS = 12 // July melt pushes readings over 8 µS
		pcfg.BasalLagDays = 1
		pcfg.MeanLifetime = 50 * 365 * 24 * time.Hour
		pr := probe.New(sim, wx, pcfg)
		st := station.New(node, srv, ch, []*probe.Probe{pr}, cfg)
		if err := sim.RunFor(24 * time.Hour); err != nil {
			return false, 0, 0, err
		}
		reps := st.Reports()
		if len(reps) == 0 {
			return false, 0, 0, errors.New("the station filed no report in its first day")
		}
		return reps[0].ForcedComms, reps[0].UploadedBytes, reps[0].LocalState, nil
	}

	fWith, bWith, st1, errWith := run(true)
	fWithout, bWithout, _, errWithout := run(false)
	if err := errors.Join(errWith, errWithout); err != nil {
		return err
	}
	rows := [][]string{
		{"with priority evaluator", fmt.Sprintf("%v", fWith), fmt.Sprintf("%d B", bWith), "same day"},
		{"as deployed (none)", fmt.Sprintf("%v", fWithout), fmt.Sprintf("%d B", bWithout), "waits for battery"},
	}
	fmt.Fprintf(w, "scenario: July conductivity spike, battery at local %v\n\n", st1)
	fmt.Fprint(w, trace.Table([]string{"Configuration", "Forced comms", "Event data out", "Event latency"}, rows))
	fmt.Fprintln(w, "\n§VII: \"This work could be extended by enabling the base station to")
	fmt.Fprintln(w, "analyse the data collected and prioritise it forcing communication even")
	fmt.Fprintln(w, "if the available power is marginal if the data warrants it.\"")
	return nil
}
