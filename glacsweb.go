// Package repro is a reproduction, as a Go library and simulation testbed,
// of "Field Deployment of Low Power High Performance Nodes" (Martinez,
// Basford, Ellul, Clarke — the Glacsweb project's Gumsense base stations on
// Vatnajökull, Iceland).
//
// The paper's contribution is a fault-tolerant dual-processor sensor
// gateway: an ARM Linux Gumstix for the heavy lifting, an MSP430 for
// sensing, timekeeping and power switching, plus a set of deployment
// techniques — a voltage-driven power-state machine (Table II),
// server-mediated schedule synchronisation between stations that never talk
// to each other, automatic clock/schedule recovery after total battery
// exhaustion, an ack-less bulk fetch protocol for sub-glacial probe data, a
// two-hour safety watchdog, and checksum-verified remote code update.
//
// Since the original system is inseparable from its hardware (glacier,
// batteries, GPRS modems, dGPS units), this package fronts a deterministic
// discrete-event simulation of the complete deployment; the paper's
// algorithms run unchanged on the simulated platform. See DESIGN.md for the
// full system inventory and EXPERIMENTS.md for the reproduced evaluation.
//
// This package is the surface for programs outside the module, and it is
// exactly what its Examples demonstrate. Quick start — the paper's pair, by
// scenario name (ExampleBuildScenario):
//
//	d, _ := repro.BuildScenario("as-deployed-2008", repro.ScenarioParams{Seed: 42})
//	_ = d.RunDays(60)
//	fmt.Print(d.Result())
//
// or any fleet, declaratively (ExampleBuild):
//
//	d, _ := repro.Build(repro.FleetTopology(42, 8, 3))
//	_ = d.RunDays(21)
//	fmt.Print(d.Result())
package repro

import (
	"net"
	"time"

	"repro/internal/comms"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/distrib"
	"repro/internal/probe"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/simenv"
	"repro/internal/station"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/update"
	"repro/internal/weather"
)

// Deployments: a Topology declares a fleet of StationSpecs, Build wires it
// into a running Deployment on one simulator, and its Result rolls the
// fleet up per station and in total. The paper's Fig 3 architecture is the
// two-entry "as-deployed-2008" scenario. Stations are reached by name
// (Deployment.Station) or in topology order (Deployment.Stations).
type (
	// Deployment is a fully wired simulated field system of any size.
	Deployment = deploy.Deployment
	// Topology declares a fleet: stations, climate, faults.
	Topology = deploy.Topology
	// StationSpec declares one station of a Topology.
	StationSpec = deploy.StationSpec
	// Fault is one injected deployment fault.
	Fault = deploy.Fault
	// ScenarioParams parameterises a scenario build.
	ScenarioParams = scenario.Params
	// RunReport summarises one daily station run.
	RunReport = station.RunReport
)

// FaultBatterySoC starts the faulted stations' banks at Fault.Value
// state of charge.
const FaultBatterySoC = deploy.FaultBatterySoC

// RoleReference is the dGPS reference station's role.
const RoleReference = station.RoleReference

// Build wires a fleet from a declarative topology.
func Build(t Topology) (*Deployment, error) { return deploy.Build(t) }

// BaseSpec returns a base-station spec with a probe cohort.
func BaseSpec(name string, numProbes int) StationSpec { return deploy.BaseSpec(name, numProbes) }

// ReferenceSpec returns a reference-station spec.
func ReferenceSpec(name string) StationSpec { return deploy.ReferenceSpec(name) }

// FleetTopology is an n-station fleet: one reference plus n-1 bases, each
// with its own probe cohort and radio cell.
func FleetTopology(seed int64, n, probesPerBase int) Topology {
	return deploy.FleetTopology(seed, n, probesPerBase)
}

// LookupScenario returns the named scenario.
func LookupScenario(name string) (scenario.Scenario, bool) { return scenario.Lookup(name) }

// ListScenarios returns every registered scenario sorted by name.
func ListScenarios() []scenario.Scenario { return scenario.List() }

// BuildScenario looks a scenario up by name and wires its deployment.
func BuildScenario(name string, p ScenarioParams) (*Deployment, error) {
	return scenario.Build(name, p)
}

// Sweeps: a SweepGrid declares scenario x seed x override axes, RunSweep
// runs one independent Deployment per cell on a bounded worker pool, and
// the summary folds each configuration's metrics across its seeds. A
// grid's Drive hook runs a cell and returns extra SweepMetrics and named
// Series alongside the standard ones, and the summary exports as text,
// CSV or JSON — byte-identical for any worker count. A SweepRemoteRunner
// fans the same cells out to worker daemons (ServeSweepWorker) with an
// identical summary.
type (
	// SweepGrid declares a sweep's axes and per-cell hooks.
	SweepGrid = sweep.Grid
	// SweepMetric is one named per-cell measurement a Drive hook returns.
	SweepMetric = sweep.Metric
	// SweepOverride is one named topology mutation on the override axis.
	SweepOverride = sweep.Override
	// SweepCell identifies one point of the grid cross-product.
	SweepCell = sweep.Cell
	// SweepStats is one metric folded across a configuration's seeds.
	SweepStats = sweep.Stats
	// SweepRemoteRunner executes sweep cells on a pool of worker daemons
	// with retry/requeue; set Workers to their addresses.
	SweepRemoteRunner = distrib.RemoteRunner
)

// RunSweep executes the grid on a bounded worker pool (workers <= 0 means
// GOMAXPROCS).
func RunSweep(g SweepGrid, workers int) (*sweep.Summary, error) {
	return sweep.Run(g, workers)
}

// RunSweepOn executes the whole grid through an arbitrary runner, such as
// a SweepRemoteRunner, and reduces it into the full summary.
func RunSweepOn(g SweepGrid, r sweep.Runner) (*sweep.Summary, error) {
	return sweep.RunShardWith(g, r, 0, 1)
}

// ServeSweepWorker serves a sweep worker daemon on l until the listener
// closes (maxShards <= 0 bounds concurrent shards at 2). The glacsim
// worker subcommand is this function behind a flag set.
func ServeSweepWorker(l net.Listener, maxShards int) error {
	return distrib.Serve(l, &distrib.Worker{MaxShards: maxShards})
}

// SeedRange returns n consecutive seeds starting at from — the usual seed
// axis of a SweepGrid.
func SeedRange(from int64, n int) []int64 { return sweep.SeedRange(from, n) }

// Hardware and traces: a standalone Simulator, the synthetic climate and
// the paper's node, server and series pieces for custom scenarios.
type (
	// Simulator is the discrete-event kernel.
	Simulator = simenv.Simulator
	// Series is a recorded time series (figures, traces).
	Series = trace.Series
)

// NewSimulator returns a standalone simulator starting at the given time,
// for building custom scenarios out of the exported hardware pieces.
func NewSimulator(seed int64, start time.Time) *Simulator {
	return simenv.NewAt(seed, start)
}

// NewWeather returns the synthetic Iceland climate for a seed.
func NewWeather(seed int64) *weather.Model {
	return weather.New(seed)
}

// NewNode assembles a Gumsense node on a simulator with a hardware fit
// such as BaseNodeConfig.
func NewNode(sim *Simulator, wx *weather.Model, cfg core.NodeConfig) *core.Node {
	return core.NewNode(sim, wx, cfg)
}

// BaseNodeConfig is the base-station hardware fit (10 W solar, 50 W wind).
func BaseNodeConfig(name string) core.NodeConfig { return core.BaseStationConfig(name) }

// NewServer returns an empty Southampton server.
func NewServer() *server.Server { return server.New() }

// SampleSeries attaches a periodic sampler to a simulator (figures). A
// baseline sample is recorded at attach time.
func SampleSeries(sim *Simulator, interval time.Duration, name, unit string,
	fn func(now time.Time) float64) (*Series, *simenv.Ticker) {
	return trace.Sample(sim, interval, name, unit, fn)
}

// ASCIIChart renders series as a terminal chart.
func ASCIIChart(width, height int, series ...*Series) string {
	return trace.ASCIIChart(width, height, series...)
}

// HashNoise is the deterministic uniform noise used throughout the
// simulation; exposed for writing reproducible custom scenarios.
func HashNoise(seed int64, tag string, k uint64) float64 {
	return simenv.HashNoise(seed, tag, k)
}

// Probe retrieval (§V): the paper's ack-less bulk fetcher, its post-fix
// configuration and the stop-and-wait baseline it replaced.
type (
	// Probe is a sub-glacial sensor node.
	Probe = probe.Probe
	// ProbeChannel is the lossy sub-glacial radio medium.
	ProbeChannel = comms.ProbeChannel
)

// ErrNackOverflow is a fetch session aborted by the as-deployed 256-NACK
// limit, the field bug of §V.
var ErrNackOverflow = protocol.ErrNackOverflow

// NewProbeChannel returns the probe radio medium (wx may be nil for a
// permanent dry-winter channel).
func NewProbeChannel(sim *Simulator, wx *weather.Model) *ProbeChannel {
	return comms.NewProbeChannel(sim, wx)
}

// DefaultProbeConfig returns per-probe parameters for an ID (the paper's
// probes are numbered 21, 24, 25, ...).
func DefaultProbeConfig(id int) probe.Config { return probe.DefaultConfig(id) }

// NewProbe constructs a sub-glacial probe and starts its sampling schedule.
func NewProbe(sim *Simulator, wx *weather.Model, cfg probe.Config) *Probe {
	return probe.New(sim, wx, cfg)
}

// NewNackFetcher returns the paper's fetcher in its as-deployed
// configuration, including the untested 256-NACK limit that failed in the
// field.
func NewNackFetcher() *protocol.NackFetcher {
	return protocol.NewNackFetcher(protocol.DefaultNackConfig())
}

// NewFixedNackFetcher returns the fetcher with the NACK limit removed.
func NewFixedNackFetcher() *protocol.NackFetcher {
	return protocol.NewNackFetcher(protocol.FixedNackConfig())
}

// NewAckFetcher returns the stop-and-wait baseline.
func NewAckFetcher() *protocol.AckFetcher {
	return protocol.NewAckFetcher()
}

// NewFetchState returns an empty cross-session fetch state.
func NewFetchState() *protocol.State { return protocol.NewState() }

// Remote update (§VI): checksum-verified installs with MD5 beacons.
type (
	// Artifact is a remotely updatable program.
	Artifact = update.Artifact
)

// NewInstaller returns an empty update installer.
func NewInstaller() *update.Installer { return update.NewInstaller() }

// ManifestFor builds the manifest of a verified artifact.
func ManifestFor(a Artifact) update.Manifest { return update.ManifestFor(a) }

// CorruptInTransit damages an artifact copy for failure-injection demos.
func CorruptInTransit(a Artifact, fraction float64, pick func(i int) float64) Artifact {
	return update.CorruptInTransit(a, fraction, pick)
}

// NewRadioModem returns one end of the §II 466 MHz radio-modem link the
// Norway deployment relayed through, at the glacier's interference level.
func NewRadioModem(sim *Simulator, name string) *comms.RadioModem {
	return comms.NewRadioModem(sim, name)
}

// Table I device characteristics (transfer rate bps, power W).
const (
	GPRSRateBps   = comms.GPRSRateBps
	GPRSPowerW    = comms.GPRSPowerW
	RadioRateBps  = comms.RadioRateBps
	RadioPowerW   = comms.RadioPowerW
	GumstixPowerW = 0.9
	GPSPowerW     = 3.6
)
