// Package campaign is the x-series sweep campaign catalogue: the named
// grids glacreport campaign runs, factored out of the CLI so any worker
// binary (glacsim worker) can execute campaign shards. Each entry
// registers a distrib hook set under HooksName(id), letting its
// behavioural hooks — the sync-lag, fleet-scan and voltage-sampling
// drivers and the fleet fault override — reattach to grids that crossed
// the wire as declarative specs.
package campaign

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/distrib"
	"repro/internal/power"
	"repro/internal/simenv"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Entry is one experiment of the sweep campaign: a named grid whose
// summary lands in the artifact directory.
type Entry struct {
	ID    string
	Title string
	// Grid builds the entry's sweep grid; days <= 0 selects the entry's
	// own default horizon.
	Grid func(seed int64, seeds, days int) sweep.Grid
	// FixedHorizon marks entries whose custom driver runs a fixed number
	// of days regardless of a campaign-wide days override.
	FixedHorizon bool
}

// Entries returns the campaign catalogue: every grid-shaped x-series
// study plus the Fig 5 voltage-curve capture, in artifact order.
func Entries() []Entry {
	return entries
}

// HooksName is the distrib hook-set registration for an entry, shared
// between the coordinator building shard requests and the worker binaries
// serving them.
func HooksName(id string) string { return "campaign/" + id }

var entries = []Entry{
	{
		ID:    "x5-sync-lag",
		Title: "§III override sync lag: change timing vs adoption delay",
		Grid: func(seed int64, seeds, days int) sweep.Grid {
			return SyncLagGrid(seed, seeds)
		},
		FixedHorizon: true,
	},
	{
		ID:    "x9-fleet-min-rule",
		Title: "§III min-rule at fleet scale: one weak battery holds 8 stations down",
		Grid: func(seed int64, seeds, days int) sweep.Grid {
			return FleetMinRuleGrid(seed, seeds, days)
		},
	},
	{
		ID:    "f5-voltage",
		Title: "Fig 5 battery voltage: per-cell diurnal curves with dGPS ripple",
		Grid: func(seed int64, seeds, days int) sweep.Grid {
			return VoltageGrid(seed, seeds, days)
		},
	},
}

func init() {
	// Hook sets reattach behaviour to grids decoded from the wire. The
	// reference grid's parameters are irrelevant — only its hooks are
	// grafted — so any values work here.
	for _, e := range entries {
		entry := e
		distrib.RegisterHooks(HooksName(entry.ID),
			distrib.HooksFromGrid(func() sweep.Grid { return entry.Grid(1, 1, 0) }))
	}
}

// The two timings of the §III override-sync study; label-only override
// axis values interpreted by SyncLagDrive.
const SyncBeforeWindow, SyncAfterWindow = "set at 11:00 (before window)", "set at 13:00 (after window)"

// SyncLagDrive is the custom per-cell driver of the §III sync-lag study:
// run five days, place a state change before (11:00) or after (13:00) the
// midday window, then count whole days until each station adopts it.
// Shared by the x5 experiment and the campaign runner. The override and
// the readings both address the stations "base" and "ref" by name, so a
// scenario without either is an error.
func SyncLagDrive(c sweep.Cell, d *deploy.Deployment) ([]sweep.Metric, []*trace.Series, error) {
	base, okBase := d.Station("base")
	ref, okRef := d.Station("ref")
	if !okBase || !okRef {
		return nil, nil, fmt.Errorf("sync-lag drive: scenario %q has no stations \"base\" and \"ref\" (have %v)",
			c.Scenario, d.StationNames())
	}
	if err := d.RunDays(5); err != nil {
		return nil, nil, err
	}
	setHour := 11
	if c.Override == SyncAfterWindow {
		setHour = 13
	}
	setAt := simenv.StartOfDay(d.Sim.Now()).Add(time.Duration(setHour) * time.Hour)
	if err := d.Sim.Run(setAt); err != nil {
		return nil, nil, err
	}
	d.Server.SetManualOverride("base", power.State1)
	d.Server.SetManualOverride("ref", power.State1)
	failsBefore := base.Stats().CommsFailures + ref.Stats().CommsFailures
	// Check each evening (18:00, after the midday window): day 0 means
	// the change landed the same day it was set.
	baseLag, refLag := -1, -1
	for day := 0; day <= 6; day++ {
		check := simenv.StartOfDay(setAt).Add(time.Duration(day)*24*time.Hour + 18*time.Hour)
		if err := d.Sim.Run(check); err != nil {
			return nil, nil, err
		}
		if baseLag < 0 && base.State() == power.State1 {
			baseLag = day
		}
		if refLag < 0 && ref.State() == power.State1 {
			refLag = day
		}
		if baseLag >= 0 && refLag >= 0 {
			break
		}
	}
	failures := base.Stats().CommsFailures + ref.Stats().CommsFailures - failsBefore
	return []sweep.Metric{
		{Name: "base-lag-days", Value: float64(baseLag)},
		{Name: "ref-lag-days", Value: float64(refLag)},
		{Name: "failed-sessions", Value: float64(failures)},
	}, nil, nil
}

// SyncLagGrid is the x5 grid: as-deployed pair x seeds x the two change
// timings, driven by SyncLagDrive.
func SyncLagGrid(seed int64, seeds int) sweep.Grid {
	return sweep.Grid{
		Scenarios: []string{"as-deployed-2008"},
		Seeds:     sweep.SeedRange(seed, seeds),
		Overrides: []sweep.Override{{Name: SyncBeforeWindow}, {Name: SyncAfterWindow}},
		Drive:     SyncLagDrive,
	}
}

// BreakFirstBase is the x9 fault injection: the first base's chargers are
// dead and its bank starts quarter-charged. Shared by the x9 experiment
// and the campaign runner.
func BreakFirstBase(top *deploy.Topology) {
	hw := core.BaseStationConfig("base-01")
	hw.Chargers = nil
	top.Stations[0].Hardware = &hw
	top.Faults = append(top.Faults,
		deploy.Fault{Station: "base-01", Kind: deploy.FaultBatterySoC, Value: 0.25})
}

// FleetHeldRows scans a fleet deployment for the min-rule signature: how
// many station-days each station spent held below its local state by the
// server override. Returns the healthy-station total (excluding the broken
// base-01) plus a per-station detail table.
func FleetHeldRows(d *deploy.Deployment) (healthyHeld int, rows [][]string) {
	for _, st := range d.Stations {
		held := 0
		for _, r := range st.Reports() {
			if r.OverrideFetched && r.Override < r.LocalState && r.Effective == r.Override {
				held++
			}
		}
		if st.Name() != "base-01" {
			healthyHeld += held
		}
		rows = append(rows, []string{st.Name(), st.Role().String(),
			fmt.Sprintf("%d", st.Stats().Runs), fmt.Sprintf("%d", held), st.State().String()})
	}
	return healthyHeld, rows
}

// FleetMinRuleGrid is the x9 grid: an 8-station fleet x seeds with the
// broken-base override, counting healthy-station-days-held after the run.
// days <= 0 selects the study's two-week default.
func FleetMinRuleGrid(seed int64, seeds, days int) sweep.Grid {
	if days <= 0 {
		days = 14
	}
	return sweep.Grid{
		Scenarios: []string{"fleet-N"},
		Seeds:     sweep.SeedRange(seed, seeds),
		Stations:  []int{8},
		Days:      days,
		Overrides: []sweep.Override{{Name: "base-01-dead", Apply: BreakFirstBase}},
		Drive: func(c sweep.Cell, d *deploy.Deployment) ([]sweep.Metric, []*trace.Series, error) {
			if err := d.RunDays(c.Days); err != nil {
				return nil, nil, err
			}
			healthyHeld, _ := FleetHeldRows(d)
			return []sweep.Metric{{Name: "healthy-station-days-held", Value: float64(healthyHeld)}}, nil, nil
		},
	}
}

// VoltageGrid is the f5 capture: the as-deployed pair x seeds with a
// Drive that samples the base station's battery voltage every half hour
// across the run. days <= 0 selects the figure's four-day default.
func VoltageGrid(seed int64, seeds, days int) sweep.Grid {
	if days <= 0 {
		days = 4
	}
	return sweep.Grid{
		Scenarios: []string{"as-deployed-2008"},
		Seeds:     sweep.SeedRange(seed, seeds),
		Days:      days,
		Drive: func(c sweep.Cell, d *deploy.Deployment) ([]sweep.Metric, []*trace.Series, error) {
			horizon := time.Duration(c.Days) * 24 * time.Hour
			base, _ := d.Station("base")
			volts, _ := trace.SampleFor(d.Sim, 30*time.Minute, horizon, "base-volts", "V",
				func(time.Time) float64 { return base.Node().Bus.VoltageNow() })
			return nil, []*trace.Series{volts}, d.RunDays(c.Days)
		},
	}
}
