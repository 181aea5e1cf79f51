package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/deploy"
	"repro/internal/evlog"
	"repro/internal/scenario"
)

// workload is one named job the benchmark times. Comparisons across
// commits refer to workloads by these names, so they do not change.
type workload struct {
	name string
	// items names what items_per_s counts.
	items string
	// pin names the entry of the pinned digest file the outputs must
	// match; the three campaign workloads share one.
	pin   string
	setup func(cfg config, work string) (*job, error)
}

var workloads = []workload{
	{"campaign_cold", "cells", "campaign", setupCampaign(modeCold)},
	{"campaign_warm", "cells", "campaign", setupCampaign(modeWarm)},
	{"campaign_remote", "cells", "campaign", setupCampaign(modeRemote)},
	{"fleet_1000", "station-days", "fleet_1000", setupFleet},
	{"scenario_replay", "scenario-days", "scenario_replay", setupReplay},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// job is a set-up workload, ready to iterate.
type job struct {
	// iterate runs one whole iteration; tr is nil when untraced.
	iterate func(tr *tracer) (outcome, error)
	close   func()
	// setupOuts are outcomes of work the set-up ran, which the output
	// checks hold to the same digest (campaign_warm fills its cache with
	// one cold campaign).
	setupOuts []outcome
}

// outcome is one iteration's account.
type outcome struct {
	wall      time.Duration
	items     int
	ops       []time.Duration // the workload's unit operations, timed
	attempted int
	failed    int
	// files maps each output to its SHA-256: campaign artifacts by file
	// name, the fleet result, each scenario's event log.
	files map[string]string
}

// fleetDays is the number of one-day RunDays calls per fleet iteration.
const fleetDays = 5

// fleetProbes is the cohort size of each fleet base station.
const fleetProbes = 3

func setupFleet(cfg config, _ string) (*job, error) {
	return &job{close: func() {}, iterate: func(tr *tracer) (outcome, error) {
		out := outcome{attempted: 1 + fleetDays}
		clk := startIteration(tr)
		id := tr.begin("deploy.build", clk.root)
		a0 := tr.totalAlloc()
		d, err := deploy.Build(deploy.FleetTopology(cfg.Seed, cfg.Stations, fleetProbes))
		tr.add("build_alloc_bytes", float64(tr.totalAlloc()-a0))
		tr.end(id)
		if err != nil {
			out.failed++
			return out, err
		}
		for day := 0; day < fleetDays; day++ {
			id := tr.begin("simenv.day", clk.root)
			p0 := d.Sim.Processed()
			t0 := time.Now()
			err := d.RunDays(1)
			el := time.Since(t0)
			tr.add("events", float64(d.Sim.Processed()-p0))
			tr.add("event_time_ns", float64(el.Nanoseconds()))
			tr.end(id)
			if err != nil {
				out.failed++
				return out, err
			}
			out.ops = append(out.ops, el)
		}
		out.files = map[string]string{"result": sha([]byte(d.Result().String()))}
		out.wall = clk.stop()
		out.items = cfg.Stations * fleetDays
		return out, nil
	}}, nil
}

func setupReplay(cfg config, _ string) (*job, error) {
	scenarios := scenario.List()
	return &job{close: func() {}, iterate: func(tr *tracer) (outcome, error) {
		out := outcome{files: map[string]string{}}
		clk := startIteration(tr)
		for _, s := range scenarios {
			days := s.Horizon(scenario.Params{Days: cfg.Days})
			t0 := time.Now()
			log, err := replayScenario(tr, clk.root, s.Name, cfg.Seed, days)
			out.attempted++
			if err != nil {
				out.failed++
				return out, fmt.Errorf("%s: %w", s.Name, err)
			}
			out.ops = append(out.ops, time.Since(t0))
			out.files[s.Name] = sha(log)
			out.items += days
		}
		out.wall = clk.stop()
		return out, nil
	}}, nil
}

// replayScenario is glacsim's record path followed by its replay path:
// build the scenario, record its run into memory, read the log back and
// verify a fresh run against it. It returns the log.
func replayScenario(tr *tracer, root int, name string, seed int64, days int) ([]byte, error) {
	sc := tr.begin("scenario", root)
	defer tr.end(sc)
	id := tr.begin("deploy.build", sc)
	a0 := tr.totalAlloc()
	d, err := scenario.Build(name, scenario.Params{Seed: seed})
	tr.add("build_alloc_bytes", float64(tr.totalAlloc()-a0))
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("simenv.run", sc)
	var buf bytes.Buffer
	w, err := evlog.NewWriter(&buf, evlog.Header{Scenario: name, Seed: seed, Days: days})
	if err != nil {
		return nil, err
	}
	var observe time.Duration
	if tr == nil {
		w.Attach(d.Sim)
	} else {
		d.Sim.OnEvent(func(name string, at time.Time) {
			t0 := time.Now()
			w.Observe(name, at)
			observe += time.Since(t0)
		})
	}
	t0 := time.Now()
	err = d.RunDays(days)
	el := time.Since(t0)
	if err == nil {
		err = w.Close()
	}
	tr.add("events", float64(d.Sim.Processed()))
	tr.add("event_time_ns", float64(el.Nanoseconds()))
	tr.add("observe_ns", float64(observe.Nanoseconds()))
	tr.add("records", float64(w.Records()))
	tr.add("log_bytes", float64(buf.Len()))
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("evlog.read", sc)
	l, err := evlog.Read(bytes.NewReader(buf.Bytes()))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("evlog.verify", sc)
	div, err := evlog.Verify(l)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if div != nil {
		return nil, fmt.Errorf("replay diverged: %w", div)
	}
	return buf.Bytes(), nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
