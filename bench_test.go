// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each Benchmark corresponds to a row of the experiment index in DESIGN.md
// §4; custom metrics report the paper-relevant quantity alongside the usual
// ns/op (e.g. days of battery, packets missed, bytes on air). Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/comms"
	"repro/internal/deploy"
	"repro/internal/energy"
	"repro/internal/hw/dgps"
	"repro/internal/hw/mcu"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/simenv"
	"repro/internal/sweep"
	"repro/internal/update"
	"repro/internal/weather"
)

// --- Table I: component characteristics ---

func BenchmarkTable1GPRSTransfer(b *testing.B) {
	sim := simenv.New(1)
	g := newBenchGPRS(sim)
	b.ResetTimer()
	var d time.Duration
	for i := 0; i < b.N; i++ {
		d = g.TransferTime(1024 * 1024)
	}
	b.ReportMetric(d.Seconds(), "s/MB")
}

func newBenchGPRS(sim *simenv.Simulator) *comms.GPRS {
	bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 1})
	bus := energy.NewBus(sim, bat, nil, nil)
	m := mcu.New(sim, bus, "bench-mcu")
	return comms.NewGPRS(sim, m, nil, "bench")
}

func BenchmarkTable1RadioModemTransfer(b *testing.B) {
	sim := simenv.New(1)
	m := comms.NewRadioModem(sim, "bench")
	b.ResetTimer()
	var d time.Duration
	for i := 0; i < b.N; i++ {
		d = m.TransferTime(1024 * 1024)
	}
	b.ReportMetric(d.Seconds(), "s/MB")
}

// --- Table II: power-state machine ---

func BenchmarkTable2StateMachine(b *testing.B) {
	samples := make([]float64, 48)
	for i := range samples {
		samples[i] = 11.2 + float64(i)*0.05
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range samples {
			st := power.StateForVoltage(v)
			_ = power.PlanFor(st)
			_ = power.ApplyOverride(st, power.State2)
		}
	}
}

// --- Fig 3/4: a full deployment day ---

// build wires a topology known to be valid, failing the benchmark if it
// is not.
func build(b *testing.B, top deploy.Topology) *deploy.Deployment {
	b.Helper()
	d, err := deploy.Build(top)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkFig3DeploymentDay(b *testing.B) {
	d := build(b, deploy.AsDeployed(42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Sim.RunFor(24 * time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.Sim.Processed())/float64(b.N), "events/day")
}

func BenchmarkFig4DailyRunEvents(b *testing.B) {
	// Event throughput of the simulator kernel itself under station load.
	d := build(b, deploy.AsDeployed(7))
	if err := d.RunDays(1); err != nil {
		b.Fatal(err)
	}
	before := d.Sim.Processed()
	if err := d.RunDays(30); err != nil {
		b.Fatal(err)
	}
	perDay := float64(d.Sim.Processed()-before) / 30
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Sim.RunFor(24 * time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(perDay, "events/day")
}

// BenchmarkFleetDay measures a whole fleet day at 2/8/32 stations — the
// scaling surface the Topology/Scenario API opens up. events/station-day
// should stay roughly flat: the simulator is the shared resource, the
// stations only couple through the server's min-rule.
func BenchmarkFleetDay(b *testing.B) {
	for _, n := range []int{2, 8, 32, 1000} {
		b.Run(fmt.Sprintf("stations-%d", n), func(b *testing.B) {
			d, err := deploy.Build(deploy.FleetTopology(42, n, 3))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Sim.RunFor(24 * time.Hour); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.Sim.Processed())/float64(b.N)/float64(n), "events/station-day")
		})
	}
}

// BenchmarkSweep measures the sweep engine's wall-clock scaling on an
// 8-seed fleet-8 grid — 8 independent deployments per sweep, one per cell.
// Since cells share nothing (each owns its simulator, weather, server and
// fleet), the speedup should track min(workers, cores); the summary itself
// is byte-identical at every worker count (the sweep package's
// TestRunWorkerCountIndependence pins that).
func BenchmarkSweep(b *testing.B) {
	grid := sweep.Grid{
		Scenarios: []string{"fleet-N"},
		Seeds:     sweep.SeedRange(1, 8),
		Stations:  []int{8},
		Days:      10,
	}
	cpus := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < cpus {
		cpus = n
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			if workers > 1 && cpus == 1 {
				// A multi-worker datapoint on a single CPU is a misleading
				// flat line, not a scaling measurement (BENCH_6 published
				// exactly that). Skip rather than pollute the trajectory.
				b.Skipf("only 1 CPU available; a %d-worker run cannot measure scaling", workers)
			}
			for i := 0; i < b.N; i++ {
				sum, err := sweep.Run(grid, workers)
				if err != nil {
					b.Fatal(err)
				}
				for _, cr := range sum.Cells {
					if cr.Err != "" {
						b.Fatalf("cell %s: %s", cr.Cell.Label(), cr.Err)
					}
				}
			}
		})
	}
}

// --- Fig 5: voltage model ---

func BenchmarkFig5VoltageModel(b *testing.B) {
	bat := energy.NewBattery(energy.DefaultBatteryConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bat.TerminalVoltage(3.6, 12)
		bat.Transfer(3.6, 12, 0.01)
	}
}

// --- Fig 6: conductivity model ---

func BenchmarkFig6Conductivity(b *testing.B) {
	wx := weather.New(2)
	sim := simenv.NewAt(2, time.Date(2009, 1, 27, 0, 0, 0, 0, time.UTC))
	cfg := probe.DefaultConfig(21)
	cfg.MeanLifetime = 50 * 365 * 24 * time.Hour
	p := probe.New(sim, wx, cfg)
	ts := time.Date(2009, 4, 1, 12, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.ConductivityAt(ts.Add(time.Duration(i) * time.Hour))
	}
}

// --- X1: battery lifetime vs duty cycle ---

func BenchmarkLifetimeState3(b *testing.B) {
	var days float64
	for i := 0; i < b.N; i++ {
		bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 1})
		days = 0
		for !bat.Depleted() && days < 1000 {
			bat.Transfer(dgps.PowerW, 0, 1) // 1 h/day of dGPS
			days++
		}
	}
	b.ReportMetric(days, "days-to-deplete")
}

func BenchmarkLifetimeContinuous(b *testing.B) {
	var hours float64
	for i := 0; i < b.N; i++ {
		bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 1})
		hours = 0
		for !bat.Depleted() && hours < 10000 {
			bat.Transfer(dgps.PowerW, 0, 1)
			hours++
		}
	}
	b.ReportMetric(hours/24, "days-to-deplete")
}

// --- X2: architecture comparison ---

func BenchmarkArchCompareEnergy(b *testing.B) {
	sim := simenv.New(1)
	radio := comms.NewRadioModem(sim, "m")
	const dayBytes = 12*165*1024 + 80*1024
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gprsSecs := func(n int64) float64 { return float64(n) * 8 * (1 + comms.GPRSOverhead) / comms.GPRSRateBps }
		relay := comms.RadioPowerW*2*radio.TransferTime(dayBytes).Hours() +
			comms.GPRSPowerW*gprsSecs(2*dayBytes)/3600
		dual := 2 * comms.GPRSPowerW * gprsSecs(dayBytes) / 3600
		ratio = relay / dual
	}
	b.ReportMetric(ratio, "energy-ratio")
}

// --- X3: bulk fetch protocols ---

func benchSummerScenario(seed int64) (*simenv.Simulator, *comms.ProbeChannel, *probe.Probe) {
	wx := weather.New(seed)
	sim := simenv.NewAt(seed, time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC))
	cfg := probe.DefaultConfig(21)
	cfg.MeanLifetime = 50 * 365 * 24 * time.Hour
	pr := probe.New(sim, wx, cfg)
	if err := sim.RunFor(125 * 24 * time.Hour); err != nil {
		panic(err)
	}
	return sim, comms.NewProbeChannel(sim, wx), pr
}

func BenchmarkBulkFetchNackSummer(b *testing.B) {
	var res protocol.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim, ch, pr := benchSummerScenario(int64(i + 1))
		f := protocol.NewNackFetcher(protocol.FixedNackConfig())
		b.StartTimer()
		res = f.Fetch(sim.Now(), ch, pr, 6*time.Hour, nil)
	}
	b.ReportMetric(float64(res.MissedFirstPass), "missed-first-pass")
	b.ReportMetric(res.Elapsed.Minutes(), "channel-min")
}

func BenchmarkBulkFetchAckSummer(b *testing.B) {
	var res protocol.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim, ch, pr := benchSummerScenario(int64(i + 1))
		f := protocol.NewAckFetcher()
		b.StartTimer()
		res = f.Fetch(sim.Now(), ch, pr, 6*time.Hour, nil)
	}
	b.ReportMetric(res.Elapsed.Minutes(), "channel-min")
	b.ReportMetric(float64(res.AirBytes)/1024, "KB-on-air")
}

// --- X4: watchdog backlog drain ---

func BenchmarkWatchdogBacklogDrainDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := build(b, deploy.AsDeployed(int64(i+1)))
		base, _ := d.Station("base")
		base.Node().GPS.InjectBacklog(252)
		b.StartTimer()
		if err := d.RunDays(1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- X5: server override logic ---

func BenchmarkSyncOverrideFor(b *testing.B) {
	srv := server.New()
	t0 := time.Date(2009, 9, 22, 12, 0, 0, 0, time.UTC)
	srv.UploadState("base", power.State3, t0)
	srv.UploadState("ref", power.State2, t0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = srv.OverrideFor("base")
	}
}

// --- X6: recovery after depletion ---

func BenchmarkRecoveryCycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		top := deploy.AsDeployed(int64(i + 1))
		top.Start = time.Date(2009, 5, 1, 0, 0, 0, 0, time.UTC)
		d := build(b, top)
		base, _ := d.Station("base")
		base.Node().Battery.SetSoC(0.05)
		base.Node().Bus.SetLoad("stuck", 30)
		b.StartTimer()
		if err := d.RunDays(20); err != nil {
			b.Fatal(err)
		}
	}
}

// --- X7: probe survival ---

func BenchmarkSurvivalCohort(b *testing.B) {
	year := 365 * 24 * time.Hour
	mean := time.Duration(1.8 * float64(year))
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frac = probe.Survival(int64(i), 7, mean, year)
	}
	b.ReportMetric(frac*7, "survivors-of-7")
}

// --- X8: update verification ---

func BenchmarkUpdateInstall(b *testing.B) {
	ins := update.NewInstaller()
	art := update.Artifact{Name: "f", Version: "v", Payload: make([]byte, 64*1024)}
	m := update.ManifestFor(art)
	t0 := time.Date(2009, 10, 1, 12, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ins.Install(art, m, t0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: the design choices §III/§VI argue for ---

// BenchmarkAblationDailyAverageVsMiddaySpot quantifies why the power state
// uses a daily average rather than the voltage at the midday wake: "the
// highest voltage for the day is reached at approximately midday" (Fig 5),
// because solar charging peaks exactly when the Gumstix is awake, so a spot
// reading systematically overestimates battery health. Scenario: a sagging
// bank (state-2 health) with a solar panel on a clear June day.
func BenchmarkAblationDailyAverageVsMiddaySpot(b *testing.B) {
	var spotState, avgState float64
	for i := 0; i < b.N; i++ {
		// Fixed seed: this is a scenario reproduction (a clear June day),
		// not a stochastic sweep — cloudy seeds hide the diurnal peak.
		sim := simenv.NewAt(3, time.Date(2009, 6, 20, 0, 0, 0, 0, time.UTC))
		wx := weather.New(3)
		bat := energy.NewBattery(energy.BatteryConfig{InitialSoC: 0.50})
		bus := energy.NewBus(sim, bat, []energy.Charger{energy.NewSolarPanel(40)}, wx)
		m := mcu.New(sim, bus, "abl")
		if err := sim.RunFor(11*time.Hour + 55*time.Minute); err != nil {
			b.Fatal(err)
		}
		spot := bus.VoltageNow() // what a midday-only reading sees
		if err := sim.RunFor(12*time.Hour + 5*time.Minute); err != nil {
			b.Fatal(err)
		}
		avg, _ := power.DailyAverage(m.DrainSamples())
		spotState = float64(power.StateForVoltage(spot))
		avgState = float64(power.StateForVoltage(avg))
	}
	b.ReportMetric(spotState, "state-from-midday-spot")
	b.ReportMetric(avgState, "state-from-daily-average")
}
