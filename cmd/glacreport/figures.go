package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/deploy"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/simenv"
	"repro/internal/station"
	"repro/internal/trace"
	"repro/internal/weather"
)

// fig3 runs three deployment days and shows the final architecture as data
// flows: each station independently to Southampton, never to each other.
func fig3(w io.Writer, seed int64) error {
	d, err := deploy.Build(deploy.AsDeployed(seed))
	if err != nil {
		return err
	}
	if err := d.RunDays(3); err != nil {
		return err
	}
	fmt.Fprintln(w, `  [probes under 70m of ice]
        |  ack-less fetch (173 MHz through ice)
        v
  [base station] --GPRS--> [Southampton server] <--GPRS-- [reference station]
     dGPS rover               state min-rule,                 dGPS reference
     solar+wind               specials, MD5 beacons           solar+cafe mains

  (no base <-> reference link: the §II decision)`)
	fmt.Fprintln(w)
	rows := [][]string{}
	for _, rec := range d.Server.Stations() {
		rows = append(rows, []string{rec.Name, fmt.Sprintf("%.2f", float64(rec.BytesReceived)/(1<<20)),
			fmt.Sprintf("%d", rec.Uploads), rec.LastState.String()})
	}
	fmt.Fprint(w, trace.Table([]string{"Station", "MB to Southampton (3 days)", "Uploads", "Last state"}, rows))
	probeTotal := 0
	base, _ := d.Station("base")
	for _, r := range base.Reports() {
		probeTotal += r.ProbeReadings
	}
	fmt.Fprintf(w, "\nprobe readings relayed through the base station: %d\n", probeTotal)
	return nil
}

// fig4 traces one daily run and prints the executed steps in order,
// matching the paper's flowchart.
func fig4(w io.Writer, seed int64) error {
	d, err := deploy.Build(deploy.AsDeployed(seed))
	if err != nil {
		return err
	}
	type step struct {
		at   time.Time
		name string
	}
	var steps []step
	d.Sim.OnEvent(func(name string, at time.Time) {
		if strings.HasPrefix(name, "base.gumstix.job.") {
			steps = append(steps, step{at, strings.TrimPrefix(name, "base.gumstix.job.")})
		}
	})
	if err := d.RunDays(1); err != nil {
		return err
	}
	fmt.Fprintln(w, "executed steps of the base station's first daily run:")
	var rows [][]string
	seen := map[string]int{}
	for _, s := range steps {
		label := s.name
		seen[label]++
		if seen[label] > 1 {
			label = fmt.Sprintf("%s (#%d)", label, seen[label])
		}
		rows = append(rows, []string{s.at.Format("15:04:05"), label})
	}
	if len(rows) > 24 {
		head := rows[:12]
		tail := rows[len(rows)-8:]
		rows = append(head, [][]string{{"  ...", fmt.Sprintf("(%d repeated drain/upload steps)", len(steps)-20)}}...)
		rows = append(rows, tail...)
	}
	fmt.Fprint(w, trace.Table([]string{"Time (UTC)", "Fig 4 step"}, rows))
	base, _ := d.Station("base")
	rep := base.Reports()[0]
	fmt.Fprintf(w, "\nresult: local=%v override=%d effective=%v comms=%v elapsed=%v\n",
		rep.LocalState, int(rep.Override), rep.Effective, rep.CommsOK, rep.WallElapsed.Round(time.Minute))
	return nil
}

// fig5 reproduces the paper's September 2009 window: the battery's diurnal
// voltage curve, the station initially held in state 2 by the remote
// override, then released to state 3 where the 2-hourly dGPS dips appear.
func fig5(w io.Writer, seed int64) error {
	top := deploy.AsDeployed(seed)
	top.Start = time.Date(2009, 9, 15, 0, 0, 0, 0, time.UTC)
	d, err := deploy.Build(top)
	if err != nil {
		return err
	}
	base, _ := d.Station("base")

	volts, _ := trace.Sample(d.Sim, 10*time.Minute, "voltage", "V",
		func(time.Time) float64 { return base.Node().Bus.VoltageNow() })
	states := trace.NewSeries("power state", "")
	base.OnReport(func(r station.RunReport) {
		states.Add(r.Date, float64(r.Effective))
	})

	// Hold the base in state 2 for the first week (the paper: "initially
	// the voltage was high enough for ... state 3 [but] it was being held
	// in state 2 by the remote override system"), then release.
	d.Server.SetManualOverride("base", power.State2)
	if err := d.RunUntil(time.Date(2009, 9, 23, 13, 0, 0, 0, time.UTC)); err != nil {
		return err
	}
	d.Server.ClearManualOverride("base")
	if err := d.RunUntil(time.Date(2009, 9, 26, 0, 0, 0, 0, time.UTC)); err != nil {
		return err
	}

	from := time.Date(2009, 9, 22, 0, 0, 0, 0, time.UTC)
	to := time.Date(2009, 9, 26, 0, 0, 0, 0, time.UTC)
	fmt.Fprintln(w, "base battery terminal voltage, 22-25 Sept (cf. paper Fig 5):")
	fmt.Fprint(w, trace.ASCIIChart(76, 12, volts.Window(from, to)))

	fmt.Fprintln(w, "\nadopted power state by day:")
	var rows [][]string
	for _, p := range states.Points() {
		rows = append(rows, []string{p.T.Format("2006-01-02"), power.State(int(p.V)).String()})
	}
	if len(rows) > 12 {
		rows = rows[len(rows)-12:]
	}
	fmt.Fprint(w, trace.Table([]string{"Day", "Effective state"}, rows))

	// Count the state-3 dGPS dips on the final day: 12 power-ons.
	dips := countDips(volts.Window(time.Date(2009, 9, 24, 12, 30, 0, 0, time.UTC), to))
	fmt.Fprintf(w, "\nvoltage dips in the final 36 h (dGPS duty in state 3): %d (expect ~12-18 at 2 h spacing)\n", dips)
	fmt.Fprintln(w, "shape check: peaks near midday; ripple appears only after the override release.")
	return nil
}

// fig6 reproduces the three-probe conductivity traces from late January to
// late April: flat through winter, rising as melt water reaches the bed.
func fig6(w io.Writer, seed int64) error {
	wx := weather.New(seed)
	sim := simenv.NewAt(seed, time.Date(2009, 1, 27, 0, 0, 0, 0, time.UTC))
	ids := []int{21, 24, 25}
	series := make([]*trace.Series, len(ids))
	probes := make([]*probe.Probe, len(ids))
	for i, id := range ids {
		cfg := probe.DefaultConfig(id)
		cfg.MeanLifetime = 50 * 365 * 24 * time.Hour
		probes[i] = probe.New(sim, wx, cfg)
		series[i] = trace.NewSeries(fmt.Sprintf("probe %d", id), "uS")
	}
	for i := range ids {
		i := i
		sim.Every(sim.Now().Add(12*time.Hour), 12*time.Hour, "fig6.sample", func(now time.Time) {
			series[i].Add(now, probes[i].ConductivityAt(now))
		})
	}
	if err := sim.Run(time.Date(2009, 4, 21, 0, 0, 0, 0, time.UTC)); err != nil {
		return err
	}
	fmt.Fprintln(w, "sub-glacial electrical conductivity, 27 Jan - 21 Apr 2009 (cf. Fig 6):")
	fmt.Fprint(w, trace.ASCIIChart(76, 12, series...))

	fmt.Fprintln(w, "\nmonthly means (µS):")
	rows := [][]string{}
	months := []time.Month{time.February, time.March, time.April}
	for i, id := range ids {
		row := []string{fmt.Sprintf("probe %d", id)}
		for _, m := range months {
			var sum float64
			var n int
			for _, p := range series[i].Points() {
				if p.T.Month() == m {
					sum += p.V
					n++
				}
			}
			row = append(row, fmt.Sprintf("%.1f", sum/float64(max(1, n))))
		}
		rows = append(rows, row)
	}
	fmt.Fprint(w, trace.Table([]string{"Probe", "Feb", "Mar", "Apr"}, rows))
	fmt.Fprintln(w, "\nshape check: April > February for every probe (melt onset at the bed).")
	return nil
}

// countDips counts local minima deeper than 0.05 V in a series.
func countDips(s *trace.Series) int {
	pts := s.Points()
	dips := 0
	for i := 1; i < len(pts)-1; i++ {
		if pts[i].V < pts[i-1].V-0.05 && pts[i].V < pts[i+1].V-0.05 {
			dips++
		}
	}
	return dips
}
