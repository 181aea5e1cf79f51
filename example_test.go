package repro_test

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
)

// printTrimmed prints text with each line's trailing spaces removed: the
// charts and summary tables pad their columns, and an Output block cannot
// hold trailing spaces.
func printTrimmed(text string) {
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// Build the paper's deployment by scenario name — the Fig 3 architecture:
// base station, reference station, seven sub-glacial probes and the
// Southampton server — run it for two simulated months and look at the
// fleet Result.
func ExampleBuildScenario() {
	d, err := repro.BuildScenario("as-deployed-2008", repro.ScenarioParams{Seed: 42})
	if err != nil {
		panic(err)
	}

	// Record the base station's battery voltage for a quick chart.
	base, _ := d.Station("base")
	volts, _ := repro.SampleSeries(d.Sim, 30*time.Minute, "base battery", "V",
		func(time.Time) float64 { return base.Node().Bus.VoltageNow() })

	if err := d.RunDays(60); err != nil {
		panic(err)
	}

	fmt.Println("== two simulated months on Vatnajökull ==")
	fmt.Print(d.Result())

	fmt.Println("\nbase battery voltage, last 4 days (diurnal peak at midday):")
	last4 := volts.Window(d.Sim.Now().Add(-4*24*time.Hour), d.Sim.Now())
	printTrimmed(repro.ASCIIChart(72, 10, last4))

	fmt.Println("\nother registered scenarios:")
	for _, s := range repro.ListScenarios() {
		fmt.Printf("  %-18s %s\n", s.Name, s.Description)
	}
	// Output:
	// == two simulated months on Vatnajökull ==
	// === fleet of 2 @ 2008-10-31 00:00 (seed 42) ===
	// base      base      runs=60 completed=60 watchdog=0 commsFail=34 specials=0 recoveries=0 state=state3 soc=1.00 spool=86 probes=7/7 readings=9995 server=115.72MB/1163
	// ref       reference runs=60 completed=60 watchdog=0 commsFail=31 specials=0 recoveries=0 state=state3 soc=0.84 spool=44 server=117.60MB/785
	// fleet: runs=120 completed=120 watchdog=0 commsFail=65 specials=0 recoveries=0 probes=7/7 readings=9995 server=233.32MB/1948
	//
	// base battery voltage, last 4 days (diurnal peak at midday):
	//    14.53 ┤        *
	//          │*************************                                           ****
	//          │                        *                                          *
	//          │                                                                  ***
	//          │                         **                                       *
	//          │                                                                 *
	//          │                          **                                   ***
	//          │                           ***                               ***
	//          │                             ****                         *****
	//    12.71 ┤                               *****************************
	//           2008-10-27 00:00                                      2008-10-31 00:00
	//           * base battery (V)
	//
	// other registered scenarios:
	//   as-deployed-2008   the paper's Fig 3 pair: one base with the 7-probe cohort, one reference, Sept 2008 start
	//   dual-base          two glacier bases with independent probe cohorts sharing one reference and one server
	//   fleet-N            parameterised fleet: one reference plus N-1 bases (-stations N, default 4), small cohorts
	//   probe-heavy        one base drowning in probes (21 by default): stresses the fetch window and §VI log volume
	//   winter-blackout    November start, café mains dead all season, both banks half-charged: the power design's worst case
}

// The composable topology. The paper's architecture is server-mediated
// precisely so stations never talk to each other (§III), which means
// nothing limits it to one base and one reference. This declares an
// eight-station fleet, breaks one base's chargers, and watches the
// Southampton min-rule hold the whole fleet's dGPS duty cycle down with no
// inter-station link.
func ExampleBuild() {
	top := repro.FleetTopology(42, 8, 3)
	top.Faults = []repro.Fault{
		{Station: "base-01", Kind: repro.FaultBatterySoC, Value: 0.25},
	}
	// Declarative per-station overrides: base-01 also loses its chargers,
	// so its low daily averages persist instead of recharging away.
	hw := repro.BaseNodeConfig("base-01")
	hw.Chargers = nil
	top.Stations[0].Hardware = &hw

	d, err := repro.Build(top)
	if err != nil {
		panic(err)
	}
	if err := d.RunDays(21); err != nil {
		panic(err)
	}

	fmt.Println("== three weeks, eight stations, one weak battery ==")
	fmt.Print(d.Result())

	fmt.Println("\ndays each healthy station was held below its local state by the min-rule:")
	for _, st := range d.Stations {
		if st.Name() == "base-01" {
			continue
		}
		held := 0
		for _, r := range st.Reports() {
			if r.OverrideFetched && r.Override < r.LocalState && r.Effective == r.Override {
				held++
			}
		}
		fmt.Printf("  %-9s %d/%d\n", st.Name(), held, st.Stats().Runs)
	}
	fmt.Println("\n(no base↔base radio link exists: the coordination is entirely the")
	fmt.Println(" server answering each station with the fleet's minimum reported state)")
	// Output:
	// == three weeks, eight stations, one weak battery ==
	// === fleet of 8 @ 2008-09-22 00:00 (seed 42) ===
	// base-01   base      runs=21 completed=21 watchdog=0 commsFail=0 specials=0 recoveries=0 state=state1 soc=0.22 spool=0 probes=3/3 readings=1476 server=0.21MB/105
	// base-02   base      runs=21 completed=21 watchdog=0 commsFail=4 specials=0 recoveries=0 state=state1 soc=1.00 spool=0 probes=3/3 readings=1476 server=8.67MB/154
	// base-03   base      runs=21 completed=21 watchdog=0 commsFail=2 specials=0 recoveries=0 state=state1 soc=1.00 spool=0 probes=3/3 readings=1476 server=4.52MB/130
	// base-04   base      runs=21 completed=21 watchdog=0 commsFail=1 specials=0 recoveries=0 state=state1 soc=1.00 spool=0 probes=2/3 readings=1068 server=2.47MB/101
	// base-05   base      runs=21 completed=21 watchdog=0 commsFail=0 specials=0 recoveries=0 state=state1 soc=1.00 spool=0 probes=3/3 readings=1476 server=0.36MB/106
	// base-06   base      runs=21 completed=21 watchdog=0 commsFail=6 specials=0 recoveries=0 state=state3 soc=1.00 spool=15 probes=3/3 readings=1476 server=9.21MB/151
	// base-07   base      runs=21 completed=21 watchdog=0 commsFail=4 specials=0 recoveries=0 state=state3 soc=1.00 spool=5 probes=3/3 readings=1476 server=6.71MB/137
	// ref-01    reference runs=21 completed=21 watchdog=0 commsFail=4 specials=0 recoveries=0 state=state3 soc=1.00 spool=9 server=5.18MB/70
	// fleet: runs=168 completed=168 watchdog=0 commsFail=21 specials=0 recoveries=0 probes=20/21 readings=9924 server=37.33MB/954
	//
	// days each healthy station was held below its local state by the min-rule:
	//   base-02   17/21
	//   base-03   19/21
	//   base-04   20/21
	//   base-05   21/21
	//   base-06   15/21
	//   base-07   17/21
	//   ref-01    17/21
	//
	// (no base↔base radio link exists: the coordination is entirely the
	//  server answering each station with the fleet's minimum reported state)
}

// The §VI feedback delay. A special command's output reaches Southampton
// with a station's upload, and as deployed the station runs its specials
// after that upload, so the output waits for the next day's session. The
// paper's suggested reordering, specials first, lands it the same session.
func ExampleDeployment_specialOutput() {
	for _, first := range []bool{false, true} {
		top := repro.Topology{Seed: 3, Stations: []repro.StationSpec{
			repro.BaseSpec("base", 0),
			repro.ReferenceSpec("ref"),
		}}
		top.Stations[0].Runtime.SpecialFirst = first
		d, err := repro.Build(top)
		if err != nil {
			panic(err)
		}
		d.Server.PushSpecial("base", "noop")
		if err := d.RunDays(4); err != nil {
			panic(err)
		}
		for _, o := range d.Server.SpecialOutputs() {
			fmt.Printf("special-first=%-5v ran %s, output at Southampton %v later\n",
				first, o.ExecutedAt.Format("Jan 2 15:04"), o.ReceivedAt.Sub(o.ExecutedAt).Round(time.Minute))
		}
	}
	// Output:
	// special-first=false ran Sep 1 12:13, output at Southampton 25h4m0s later
	// special-first=true  ran Sep 1 12:01, output at Southampton 12m0s later
}

// The parallel experiment engine. One field season is one data point; a
// grid turns a question ("how much data does a fleet deployed on
// half-charged batteries lose?") into scenarios x seeds x a fault-injection
// override, runs every cell as its own deployment on a worker pool, and
// folds the results per configuration. The summary is byte-identical no
// matter how many workers run it.
func ExampleRunSweep() {
	grid := repro.SweepGrid{
		Scenarios: []string{"as-deployed-2008", "dual-base"},
		Seeds:     repro.SeedRange(42, 4),
		Days:      21,
		Overrides: []repro.SweepOverride{
			{Name: "nominal"},
			{Name: "weak-batteries", Apply: func(t *repro.Topology) {
				// Every station is deployed on a quarter-charged bank: low
				// daily averages, low power states, throttled dGPS uploads.
				t.Faults = append(t.Faults, repro.Fault{Kind: repro.FaultBatterySoC, Value: 0.25})
			}},
		},
	}
	sum, err := repro.RunSweep(grid, 4)
	if err != nil {
		panic(err)
	}
	printTrimmed(sum.String())

	fmt.Println("\nweak-battery cost per configuration (mean MB delivered over 4 seeds):")
	for i := 0; i+1 < len(sum.Groups); i += 2 {
		nominal, _ := sum.Groups[i].Stat("mb-to-server")
		weak, _ := sum.Groups[i+1].Stat("mb-to-server")
		fmt.Printf("  %-18s %6.2f -> %6.2f MB\n", sum.Groups[i].Scenario, nominal.Mean, weak.Mean)
	}
	// Output:
	// === sweep: 16 cells, 4 configurations ===
	// Cell                                        Days  Runs  Completed  CommsFail  Readings  MB
	// ------------------------------------------  ----  ----  ---------  ---------  --------  ------
	// as-deployed-2008 seed=42 ov=nominal         21    42    42         21         3444      74.25
	// as-deployed-2008 seed=42 ov=weak-batteries  21    42    42         21         3444      74.25
	// as-deployed-2008 seed=43 ov=nominal         21    42    42         15         3444      76.96
	// as-deployed-2008 seed=43 ov=weak-batteries  21    42    42         14         3444      64.34
	// as-deployed-2008 seed=44 ov=nominal         21    42    42         19         3444      77.05
	// as-deployed-2008 seed=44 ov=weak-batteries  21    42    42         22         3444      58.58
	// as-deployed-2008 seed=45 ov=nominal         21    42    42         14         3444      83.65
	// as-deployed-2008 seed=45 ov=weak-batteries  21    42    42         11         3444      82.15
	// dual-base seed=42 ov=nominal                21    63    63         29         6480      112.82
	// dual-base seed=42 ov=weak-batteries         21    63    63         29         6480      112.82
	// dual-base seed=43 ov=nominal                21    63    63         25         6888      116.61
	// dual-base seed=43 ov=weak-batteries         21    63    63         17         6888      96.04
	// dual-base seed=44 ov=nominal                21    63    63         24         6888      121.57
	// dual-base seed=44 ov=weak-batteries         21    63    63         21         6888      107.32
	// dual-base seed=45 ov=nominal                21    63    63         23         6888      125.54
	// dual-base seed=45 ov=weak-batteries         21    63    63         24         6888      120.41
	//
	// Configuration                       Metric          N  Mean     Stddev  CI95    Min      Max
	// ----------------------------------  --------------  -  -------  ------  ------  -------  -------
	// as-deployed-2008 ov=nominal         runs            4  42.00    0.00    0.00    42.00    42.00
	// as-deployed-2008 ov=nominal         completed-runs  4  42.00    0.00    0.00    42.00    42.00
	// as-deployed-2008 ov=nominal         watchdog-trips  4  0.00     0.00    0.00    0.00     0.00
	// as-deployed-2008 ov=nominal         comms-failures  4  17.25    3.30    5.26    14.00    21.00
	// as-deployed-2008 ov=nominal         specials        4  0.00     0.00    0.00    0.00     0.00
	// as-deployed-2008 ov=nominal         recoveries      4  0.00     0.00    0.00    0.00     0.00
	// as-deployed-2008 ov=nominal         probes-alive    4  7.00     0.00    0.00    7.00     7.00
	// as-deployed-2008 ov=nominal         probe-readings  4  3444.00  0.00    0.00    3444.00  3444.00
	// as-deployed-2008 ov=nominal         mb-to-server    4  77.98    4.00    6.36    74.25    83.65
	// as-deployed-2008 ov=nominal         uploads         4  660.25   34.47   54.84   624.00   706.00
	// as-deployed-2008 ov=weak-batteries  runs            4  42.00    0.00    0.00    42.00    42.00
	// as-deployed-2008 ov=weak-batteries  completed-runs  4  42.00    0.00    0.00    42.00    42.00
	// as-deployed-2008 ov=weak-batteries  watchdog-trips  4  0.00     0.00    0.00    0.00     0.00
	// as-deployed-2008 ov=weak-batteries  comms-failures  4  17.00    5.35    8.52    11.00    22.00
	// as-deployed-2008 ov=weak-batteries  specials        4  0.00     0.00    0.00    0.00     0.00
	// as-deployed-2008 ov=weak-batteries  recoveries      4  0.00     0.00    0.00    0.00     0.00
	// as-deployed-2008 ov=weak-batteries  probes-alive    4  7.00     0.00    0.00    7.00     7.00
	// as-deployed-2008 ov=weak-batteries  probe-readings  4  3444.00  0.00    0.00    3444.00  3444.00
	// as-deployed-2008 ov=weak-batteries  mb-to-server    4  69.83    10.46   16.64   58.58    82.15
	// as-deployed-2008 ov=weak-batteries  uploads         4  613.25   66.76   106.22  538.00   698.00
	// dual-base ov=nominal                runs            4  63.00    0.00    0.00    63.00    63.00
	// dual-base ov=nominal                completed-runs  4  63.00    0.00    0.00    63.00    63.00
	// dual-base ov=nominal                watchdog-trips  4  0.00     0.00    0.00    0.00     0.00
	// dual-base ov=nominal                comms-failures  4  25.25    2.63    4.18    23.00    29.00
	// dual-base ov=nominal                specials        4  0.00     0.00    0.00    0.00     0.00
	// dual-base ov=nominal                recoveries      4  0.00     0.00    0.00    0.00     0.00
	// dual-base ov=nominal                probes-alive    4  13.75    0.50    0.80    13.00    14.00
	// dual-base ov=nominal                probe-readings  4  6786.00  204.00  324.56  6480.00  6888.00
	// dual-base ov=nominal                mb-to-server    4  119.14   5.57    8.87    112.82   125.54
	// dual-base ov=nominal                uploads         4  1078.50  56.84   90.43   1003.00  1133.00
	// dual-base ov=weak-batteries         runs            4  63.00    0.00    0.00    63.00    63.00
	// dual-base ov=weak-batteries         completed-runs  4  63.00    0.00    0.00    63.00    63.00
	// dual-base ov=weak-batteries         watchdog-trips  4  0.00     0.00    0.00    0.00     0.00
	// dual-base ov=weak-batteries         comms-failures  4  22.75    5.06    8.05    17.00    29.00
	// dual-base ov=weak-batteries         specials        4  0.00     0.00    0.00    0.00     0.00
	// dual-base ov=weak-batteries         recoveries      4  0.00     0.00    0.00    0.00     0.00
	// dual-base ov=weak-batteries         probes-alive    4  13.75    0.50    0.80    13.00    14.00
	// dual-base ov=weak-batteries         probe-readings  4  6786.00  204.00  324.56  6480.00  6888.00
	// dual-base ov=weak-batteries         mb-to-server    4  109.15   10.25   16.31   96.04    120.41
	// dual-base ov=weak-batteries         uploads         4  1022.50  59.04   93.93   964.00   1104.00
	//
	// weak-battery cost per configuration (mean MB delivered over 4 seeds):
	//   as-deployed-2008    77.98 ->  69.83 MB
	//   dual-base          119.14 -> 109.15 MB
}

// The sweep's machine-readable side. The grid sweeps the fleet-N scenario
// over two fleet sizes and three seeds, a Drive hook captures each cell's
// first base station's battery voltage as a named series, and the summary
// lands on disk as plot-ready files: a combined CSV (cells and
// per-configuration folds), a JSON document with every series point, and
// one voltage-curve CSV per cell.
func ExampleRunSweep_export() {
	dir, err := os.MkdirTemp("", "glacsweb-export-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	grid := repro.SweepGrid{
		Scenarios: []string{"fleet-N"},
		Seeds:     repro.SeedRange(42, 3),
		Stations:  []int{2, 4},
		Days:      3,
		Drive: func(c repro.SweepCell, d *repro.Deployment) ([]repro.SweepMetric, []*repro.Series, error) {
			// Attached before the run: the series gets a t=0 baseline and
			// then a sample every 30 simulated minutes.
			base, _ := d.Station("base-01")
			volts, _ := repro.SampleSeries(d.Sim, 30*time.Minute, "base-volts", "V",
				func(time.Time) float64 { return base.Node().Bus.VoltageNow() })
			return nil, []*repro.Series{volts}, d.RunDays(c.Days)
		},
	}
	sum, err := repro.RunSweep(grid, 4)
	if err != nil {
		panic(err)
	}

	write := func(name string, encode func(io.Writer) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			panic(err)
		}
		if err := encode(f); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", name)
	}
	write("sweep.csv", sum.WriteCSV)
	write("sweep.json", sum.WriteJSON)

	// One plottable voltage curve per cell: the Fig 5 diurnal shape at
	// fleet scale, ready for gnuplot or matplotlib.
	for _, cr := range sum.Cells {
		volts, ok := cr.SeriesNamed("base-volts")
		if !ok {
			continue
		}
		name := fmt.Sprintf("volts-stations%d-seed%d.csv", cr.Cell.Stations, cr.Cell.Seed)
		write(name, volts.WriteCSV)
		fmt.Printf("  %s: %d samples\n", name, volts.Len())
	}

	fmt.Println("\nmean MB delivered per configuration:")
	for _, gr := range sum.Groups {
		if st, ok := gr.Stat("mb-to-server"); ok {
			fmt.Printf("  %-22s %6.2f ± %.2f MB over %d seeds\n", gr.Label(), st.Mean, st.Stddev, st.N)
		}
	}
	// Output:
	// wrote sweep.csv
	// wrote sweep.json
	// wrote volts-stations2-seed42.csv
	//   volts-stations2-seed42.csv: 145 samples
	// wrote volts-stations4-seed42.csv
	//   volts-stations4-seed42.csv: 145 samples
	// wrote volts-stations2-seed43.csv
	//   volts-stations2-seed43.csv: 145 samples
	// wrote volts-stations4-seed43.csv
	//   volts-stations4-seed43.csv: 145 samples
	// wrote volts-stations2-seed44.csv
	//   volts-stations2-seed44.csv: 145 samples
	// wrote volts-stations4-seed44.csv
	//   volts-stations4-seed44.csv: 145 samples
	//
	// mean MB delivered per configuration:
	//   fleet-N stations=2       6.88 ± 1.02 MB over 3 seeds
	//   fleet-N stations=4      15.25 ± 0.92 MB over 3 seeds
}

// Winter survival, the scenario the power management design exists for: a
// full year on the ice cap, September to September. The daily RunReport
// shows the Table II power state following the battery through the dark
// months, with the server's min-rule keeping both stations in lock-step.
func ExampleRunReport() {
	d, err := repro.BuildScenario("as-deployed-2008", repro.ScenarioParams{Seed: 2008})
	if err != nil {
		panic(err)
	}
	base, _ := d.Station("base")

	// Track the base station's adopted power state per day.
	stateByMonth := map[string][4]int{}
	base.OnReport(func(r repro.RunReport) {
		key := r.Date.Format("2006-01")
		counts := stateByMonth[key]
		if r.Effective >= 0 && int(r.Effective) < 4 {
			counts[int(r.Effective)]++
		}
		stateByMonth[key] = counts
	})

	volts, _ := repro.SampleSeries(d.Sim, time.Hour, "base battery", "V",
		func(time.Time) float64 { return base.Node().Bus.VoltageNow() })

	if err := d.RunDays(365); err != nil {
		panic(err)
	}

	fmt.Println("== a year on the ice: base station power states by month ==")
	fmt.Println("month     st0 st1 st2 st3   (days in each Table II state)")
	for cur := time.Date(2008, 9, 1, 0, 0, 0, 0, time.UTC); cur.Before(d.Sim.Now()); cur = cur.AddDate(0, 1, 0) {
		key := cur.Format("2006-01")
		c := stateByMonth[key]
		fmt.Printf("%s   %3d %3d %3d %3d\n", key, c[0], c[1], c[2], c[3])
	}

	fmt.Println()
	fmt.Print(d.Result())
	fmt.Printf("base power failures: %d\n", base.Node().Bus.FailCount())

	fmt.Println("\ndeep-winter voltage (two weeks in January):")
	jan := volts.Window(
		time.Date(2009, 1, 10, 0, 0, 0, 0, time.UTC),
		time.Date(2009, 1, 24, 0, 0, 0, 0, time.UTC))
	printTrimmed(repro.ASCIIChart(72, 10, jan))
	// Output:
	// == a year on the ice: base station power states by month ==
	// month     st0 st1 st2 st3   (days in each Table II state)
	// 2008-09     0   0   0  30
	// 2008-10     0   0   0  31
	// 2008-11     0   0  11  19
	// 2008-12     0   0  24   7
	// 2009-01     0   0  26   5
	// 2009-02     0   0  22   6
	// 2009-03     0   0  13  18
	// 2009-04     0   0  12  18
	// 2009-05     0   0   0  31
	// 2009-06     0   0   0  30
	// 2009-07     0   0   0  31
	// 2009-08     0   0   0  31
	//
	// === fleet of 2 @ 2009-09-01 00:00 (seed 2008) ===
	// base      base      runs=365 completed=365 watchdog=0 commsFail=146 specials=0 recoveries=0 state=state3 soc=1.00 spool=234 probes=2/7 readings=23673 server=525.61MB/4667
	// ref       reference runs=365 completed=365 watchdog=0 commsFail=132 specials=0 recoveries=0 state=state3 soc=1.00 spool=152 server=489.10MB/3506
	// fleet: runs=730 completed=730 watchdog=0 commsFail=278 specials=0 recoveries=0 probes=2/7 readings=23673 server=1014.71MB/8173
	// base power failures: 0
	//
	// deep-winter voltage (two weeks in January):
	//    14.44 ┤  *
	//          │****************         **********  ******
	//          │            *              *    * * **    *              **************
	//          │                                   **     **      **     *          *
	//          │                                   **      *     * **   **
	//          │                                           **   **  *   *
	//          │                                            *  **    ** *
	//          │                                             ***      **
	//          │                                             *
	//    12.73 ┤               ***********                                             *
	//           2009-01-10 00:00                                      2009-01-24 00:00
	//           * base battery (V)
}

// probeBacklog starts probe 21 in March 2009 and leaves it unread for
// four months, so ~3000 hourly readings wait for the base station.
func probeBacklog(seed int64) (*repro.Simulator, *repro.ProbeChannel, *repro.Probe) {
	sim := repro.NewSimulator(seed, time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC))
	wx := repro.NewWeather(seed)
	cfg := repro.DefaultProbeConfig(21)
	cfg.MeanLifetime = 50 * 365 * 24 * time.Hour
	pr := repro.NewProbe(sim, wx, cfg)
	if err := sim.RunFor(125 * 24 * time.Hour); err != nil {
		panic(err)
	}
	return sim, repro.NewProbeChannel(sim, wx), pr
}

// The §V bulk fetch. A probe under 70 m of ice accumulates hourly readings
// while the base station is down for four months. When contact resumes in
// mid-summer, when melt water makes the radio link worst, ~3000 readings
// must come up through a channel losing ~13% of packets. The as-deployed
// fetcher hits the untested 256-NACK limit (the field failure) and
// converges over days; the post-fix configuration and the stop-and-wait
// baseline follow.
func ExampleNewNackFetcher() {
	fmt.Println("== as deployed: ack-less fetch with the untested NACK limit ==")
	sim, ch, pr := probeBacklog(7)
	fmt.Printf("probe 21 pending: %d readings; summer loss rate %.1f%%\n",
		pr.PendingCount(), ch.LossRate(sim.Now())*100)

	st := repro.NewFetchState()
	fetcher := repro.NewNackFetcher()
	for day := 1; day <= 10; day++ {
		res := fetcher.Fetch(sim.Now(), ch, pr, 2*time.Hour, st)
		fmt.Printf("  day %d: got %4d readings, %3d missed first pass, %3d nacks",
			day, len(res.Got), res.MissedFirstPass, res.Nacked)
		if errors.Is(res.Err, repro.ErrNackOverflow) {
			fmt.Print("  << session aborted (the field bug)")
		}
		fmt.Println()
		if res.Complete {
			fmt.Printf("  complete on day %d — task marked done on the probe\n", day)
			break
		}
		if err := sim.RunFor(24 * time.Hour); err != nil {
			panic(err)
		}
	}

	fmt.Println("\n== post-fix config: limit removed, single session ==")
	sim2, ch2, pr2 := probeBacklog(7)
	res := repro.NewFixedNackFetcher().Fetch(sim2.Now(), ch2, pr2, 6*time.Hour, nil)
	fmt.Printf("  one session: %d readings, %d nacks, %.1f min on air, complete=%v\n",
		len(res.Got), res.Nacked, res.Elapsed.Minutes(), res.Complete)

	fmt.Println("\n== baseline: stop-and-wait with per-reading ACKs ==")
	sim3, ch3, pr3 := probeBacklog(7)
	ack := repro.NewAckFetcher().Fetch(sim3.Now(), ch3, pr3, 6*time.Hour, nil)
	fmt.Printf("  one session: %d readings, %.1f min on air, %.2f MB airtime, complete=%v\n",
		len(ack.Got), ack.Elapsed.Minutes(), float64(ack.AirBytes)/(1<<20), ack.Complete)
	fmt.Printf("\nack-less is %.2fx faster and moves %.2fx fewer bytes on this channel\n",
		float64(ack.Elapsed)/float64(res.Elapsed),
		float64(ack.AirBytes)/float64(res.AirBytes))
	// Output:
	// == as deployed: ack-less fetch with the untested NACK limit ==
	// probe 21 pending: 3000 readings; summer loss rate 13.4%
	//   day 1: got 2850 readings, 406 missed first pass, 256 nacks  << session aborted (the field bug)
	//   day 2: got  174 readings,  28 missed first pass,  28 nacks
	//   complete on day 2 — task marked done on the probe
	//
	// == post-fix config: limit removed, single session ==
	//   one session: 3000 readings, 406 nacks, 19.9 min on air, complete=true
	//
	// == baseline: stop-and-wait with per-reading ACKs ==
	//   one session: 3000 readings, 36.6 min on air, 0.27 MB airtime, complete=true
	//
	// ack-less is 1.84x faster and moves 1.24x fewer bytes on this channel
}

// The §VI checksum-verified code deployment. The station downloads an
// update over GPRS, computes its MD5, installs only on a match, and
// beacons the computed sum back over HTTP GET, so researchers know at
// once, instead of after the 24-48 h log round-trip, whether the transfer
// was clean. Here an update is pushed through a corrupting link until it
// lands.
func ExampleNewInstaller() {
	srv := repro.NewServer()
	installer := repro.NewInstaller()
	now := time.Date(2009, 10, 1, 12, 0, 0, 0, time.UTC)

	// v1 is on the station already.
	v1 := repro.Artifact{Name: "probe-fetcher.py", Version: "v1", Payload: []byte("old fetch logic")}
	if err := installer.Install(v1, repro.ManifestFor(v1), now, nil); err != nil {
		panic(err)
	}

	// Southampton verifies v2 on lab hardware and publishes its manifest.
	v2 := repro.Artifact{Name: "probe-fetcher.py", Version: "v2",
		Payload: []byte("new fetch logic without the 256-NACK limit")}
	manifest := repro.ManifestFor(v2)
	fmt.Printf("manifest for %s: md5 %s\n\n", manifest.Name, manifest.MD5)

	beacon := func(artifact, sum string) {
		srv.ReportMD5("base", artifact, sum, now)
	}

	// Day 1: the GPRS transfer corrupts a few bytes.
	fmt.Println("day 1: transfer corrupted in transit")
	damaged := repro.CorruptInTransit(v2, 0.15, func(i int) float64 {
		return repro.HashNoise(1, "corrupt", uint64(i))
	})
	if err := installer.Install(damaged, manifest, now, beacon); err != nil {
		fmt.Println("  install:", err)
	}
	cur, _ := installer.Installed("probe-fetcher.py")
	fmt.Printf("  still running: %s (old code kept — no half-installed binaries in the field)\n\n", cur.Version)

	// Day 2: clean re-download.
	now = now.Add(24 * time.Hour)
	fmt.Println("day 2: clean transfer")
	if err := installer.Install(v2, manifest, now, beacon); err != nil {
		panic(err)
	}
	cur, _ = installer.Installed("probe-fetcher.py")
	fmt.Printf("  now running: %s\n\n", cur.Version)

	fmt.Println("MD5 beacons as Southampton saw them (instant, no log delay):")
	for _, rep := range srv.MD5Reports() {
		verdict := "MISMATCH -> resend"
		if rep.Sum == manifest.MD5 {
			verdict = "match -> installed"
		}
		fmt.Printf("  %s %s %s  [%s]\n", rep.At.Format("2006-01-02"), rep.Artifact, rep.Sum, verdict)
	}

	fmt.Println("\ninstall history on the station:")
	for _, ev := range installer.History() {
		fmt.Printf("  %s ok=%v version=%q\n", ev.At.Format("2006-01-02"), ev.OK, ev.Version)
	}
	// Output:
	// manifest for probe-fetcher.py: md5 14d51d21b09b5933536d1ee2a83bd7fa
	//
	// day 1: transfer corrupted in transit
	//   install: update: checksum mismatch; keeping old version: got 2edda61308d805ada4ab2a013b4f25e4 want 14d51d21b09b5933536d1ee2a83bd7fa
	//   still running: v1 (old code kept — no half-installed binaries in the field)
	//
	// day 2: clean transfer
	//   now running: v2
	//
	// MD5 beacons as Southampton saw them (instant, no log delay):
	//   2009-10-01 probe-fetcher.py 2edda61308d805ada4ab2a013b4f25e4  [MISMATCH -> resend]
	//   2009-10-02 probe-fetcher.py 14d51d21b09b5933536d1ee2a83bd7fa  [match -> installed]
	//
	// install history on the station:
	//   2009-10-01 ok=true version="v1"
	//   2009-10-01 ok=false version=""
	//   2009-10-02 ok=true version="v2"
}

// The §II design decision. Norway relayed the base station's data over a
// 466 MHz radio-modem PPP link to the café, which forwarded everything
// upstream; Iceland gave each station its own GPRS modem. One day of data
// (a state-3 day: twelve ~165 KB dGPS files plus probe readings per
// station) goes through both architectures, comparing wall time, energy
// and failure exposure — Table I's characteristics made operational.
func ExampleNewRadioModem() {
	// One state-3 day per station: 12 dGPS files + probe/housekeeping/logs.
	const dayBytes = 12*165*1024 + 80*1024

	sim := repro.NewSimulator(1, time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC))
	radio := repro.NewRadioModem(sim, "base-radio")

	gprsTransfer := func(n int64) time.Duration {
		secs := float64(n) * 8 * 1.12 / repro.GPRSRateBps
		return time.Duration(secs * float64(time.Second))
	}

	fmt.Println("== one day of station data through each architecture ==")
	fmt.Printf("payload per station: %.2f MB\n\n", float64(dayBytes)/(1<<20))

	// Norway-style relay: both radio modems are powered for the hop, then
	// the café GPRS sends everything.
	radioT := radio.TransferTime(dayBytes)
	relayGPRST := gprsTransfer(2 * dayBytes)
	relayEnergy := repro.RadioPowerW*2*radioT.Hours() + repro.GPRSPowerW*relayGPRST.Hours()
	fmt.Println("radio-modem relay (Norway design):")
	fmt.Printf("  base->cafe hop: %.1f min at %d bps, both modems on (%.2f W each)\n",
		radioT.Minutes(), int(repro.RadioRateBps), repro.RadioPowerW)
	fmt.Printf("  cafe->world:    %.1f min of GPRS for both stations' data\n", relayGPRST.Minutes())
	fmt.Printf("  system energy:  %.1f Wh/day\n", relayEnergy)
	fmt.Printf("  failure mode:   reference station dies -> base is unreachable too\n\n")

	// Iceland: independent dual GPRS.
	gprsT := gprsTransfer(dayBytes)
	dualEnergy := 2 * repro.GPRSPowerW * gprsT.Hours()
	fmt.Println("independent dual GPRS (Iceland design):")
	fmt.Printf("  each station:   %.1f min of GPRS (%.2f W)\n", gprsT.Minutes(), repro.GPRSPowerW)
	fmt.Printf("  system energy:  %.1f Wh/day\n", dualEnergy)
	fmt.Printf("  failure mode:   stations fail independently\n\n")

	fmt.Printf("energy saving: %.1fx (paper: \"a twofold power saving can be made\")\n",
		relayEnergy/dualEnergy)
	fmt.Printf("data-volume cost change: none — the same bytes cross GPRS either way\n\n")

	// The reliability argument: dial the radio link at the daily window
	// for a simulated month and count failures.
	fails := 0
	for day := 0; day < 30; day++ {
		if err := radio.Dial(sim.Now().Add(time.Duration(day) * 24 * time.Hour)); err != nil {
			fails++
		}
	}
	fmt.Printf("radio-modem PPP dial failures at the midday window: %d/30 days\n", fails)
	fmt.Println("(lab testing was worse — interference peaks in the working day;")
	fmt.Println(" the paper abandoned the link before deployment)")
	// Output:
	// == one day of station data through each architecture ==
	// payload per station: 2.01 MB
	//
	// radio-modem relay (Norway design):
	//   base->cafe hop: 165.9 min at 2000 bps, both modems on (3.96 W each)
	//   cafe->world:    126.0 min of GPRS for both stations' data
	//   system energy:  27.4 Wh/day
	//   failure mode:   reference station dies -> base is unreachable too
	//
	// independent dual GPRS (Iceland design):
	//   each station:   63.0 min of GPRS (2.64 W)
	//   system energy:  5.5 Wh/day
	//   failure mode:   stations fail independently
	//
	// energy saving: 5.0x (paper: "a twofold power saving can be made")
	// data-volume cost change: none — the same bytes cross GPRS either way
	//
	// radio-modem PPP dial failures at the midday window: 9/30 days
	// (lab testing was worse — interference peaks in the working day;
	//  the paper abandoned the link before deployment)
}
