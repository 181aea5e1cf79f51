// Command glacsim runs a simulated Glacsweb deployment — the paper's
// two-station system or any registered fleet scenario — and prints daily
// run reports plus a deterministic fleet summary.
//
// Usage:
//
//	glacsim run -days 120 -seed 42 [-scenario as-deployed-2008] [-v]
//	glacsim run -scenario fleet-N -stations 8 -days 30
//	glacsim sweep -scenario fleet-N,dual-base -seeds 8 -workers 4
//	glacsim sweep -scenario fleet-N -seeds 8 -out csv -o sweep.csv
//	glacsim sweep -scenario fleet-N -seeds 8 -shard 0/3 -out json -o shard0.json
//	glacsim merge -out json -o merged.json shard0.json shard1.json shard2.json
//	glacsim list
//
// Each subcommand parses its own flags, so a flag that belongs to another
// subcommand is an error (exit 2), never silently ignored; `glacsim
// COMMAND -h` lists a subcommand's flags.
//
// sweep takes a comma-separated -scenario list and runs the scenario x
// seed grid on the parallel sweep engine, printing the per-cell results
// and per-configuration mean/stddev/min/max. -out selects the encoding
// (text, csv, cells-csv, groups-csv or json) and -o redirects it to a
// file. The summary is byte-identical for any -workers value in every
// encoding.
//
// -shard i/m runs only shard i of m of the grid (cells whose global index
// ≡ i mod m) and writes a partial summary; encode it as json — that
// document is the shard wire format. merge reads any number of partial
// summary files, validates they shard one grid (same plan fingerprint, no
// overlap, nothing missing) and folds them into the full summary,
// byte-identical to a single-process run in every encoding.
//
// The sweep also distributes live: `glacsim worker -listen ADDR` serves
// shards over HTTP (bounded concurrency, /healthz), and `glacsim sweep
// -remote host:port,host:port` executes the grid on such a pool —
// requeueing shards from dead or failing workers — with output still
// byte-identical to the local run. The worker registers the campaign hook
// sets too, so `glacreport campaign -remote` drives the same daemons.
//
// A persistent result cache (-cache DIR, defaulting to $GLACSWEB_CACHE;
// -no-cache disables it, -cache-max-mb bounds it with LRU eviction)
// serves already-simulated cells from disk, so re-running an identical
// grid simulates nothing; `glacsim worker -cache DIR` lets a worker pool
// warm one shared cache. Entries are verified on read — content digest,
// plan fingerprint, format version — so a hit is byte-identical to a
// fresh simulation or it is re-simulated.
//
// Event record/replay (DESIGN.md §12): `run -record FILE` writes the
// run's full executed-event stream as a compact, digest-chained event
// log; `replay FILE` rebuilds the run from the log's header, re-executes
// it and verifies step-for-step equivalence, failing with the exact event
// index, name and simulated instant of the first divergence; `evdiff A B`
// compares two logs and reports their first divergent event with context.
// `sweep -record-dir DIR` records every cell's log as
// DIR/cell-NNNN.evlog (named by global plan index), byte-identical for
// any -workers value — the event-level sharpening of the summary
// determinism guarantee.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"strings"
	"time"

	_ "repro/internal/campaign" // register the campaign hook sets in worker binaries
	"repro/internal/cliutil"
	"repro/internal/deploy"
	"repro/internal/distrib"
	"repro/internal/evlog"
	"repro/internal/scenario"
	"repro/internal/station"
	"repro/internal/sweep"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		cliutil.Fail("glacsim", err)
	}
}

// run executes one glacsim command line (without the program name).
func run(args []string) error {
	return cliutil.Run("glacsim", []cliutil.Command{
		{Name: "run", Summary: "simulate one scenario and print its fleet summary", Flags: runCmd},
		{Name: "sweep", Summary: "run a scenario x seed grid, locally, sharded or on remote workers", Flags: sweepCmd},
		{Name: "merge", Args: "FILE...", Summary: "fold partial summary files (json) into the full summary", Flags: mergeCmd},
		{Name: "replay", Args: "FILE", Summary: "replay a recorded event log and verify step-for-step equivalence", Flags: replayCmd},
		{Name: "evdiff", Args: "A B", Summary: "diff two recorded event logs", Flags: evdiffCmd},
		{Name: "worker", Summary: "serve sweep shards to remote coordinators over HTTP", Flags: workerCmd},
		{Name: "list", Summary: "list registered scenarios", Flags: listCmd},
	}, args)
}

// runCmd simulates one scenario.
func runCmd(fs *flag.FlagSet) func([]string) error {
	sc := cliutil.ScenarioFlags(fs)
	verbose := fs.Bool("v", false, "print every daily run report")
	csvPath := fs.String("csv", "", "write the first base station's voltage trace as CSV")
	record := fs.String("record", "", "record the run's event log to a file")
	return func([]string) error {
		if err := sc.Check(); err != nil {
			return err
		}
		if *record != "" && *csvPath != "" {
			// The -csv sampler schedules its own ticker events, which a replay —
			// rebuilt from nothing but the log's header — could never reproduce.
			return cliutil.Usagef("-record captures replayable runs; it cannot combine with -csv")
		}
		s, ok := scenario.Lookup(sc.Name)
		if !ok {
			return fmt.Errorf("unknown scenario %q (try glacsim list)", sc.Name)
		}
		params := scenario.Params{Seed: sc.Seed, Stations: sc.Stations, Probes: sc.Probes, Days: sc.Days}
		horizon := s.Horizon(params)
		top := s.Topology(params)
		apply, err := flagOverride(sc.Start, sc.SpecialFirst)
		if err != nil {
			return err
		}
		if apply != nil {
			apply(&top)
		}

		d, err := deploy.Build(top)
		if err != nil {
			return err
		}

		var rec *evlog.Writer
		finish := func() error { return nil }
		if *record != "" {
			// The header carries everything replay needs to rebuild this run:
			// the flag surface is exactly the rebuildable surface.
			if rec, finish, err = cliutil.RecordTo(*record, evlog.Header{
				Scenario: s.Name, Seed: sc.Seed, Stations: sc.Stations, Probes: sc.Probes,
				Days: horizon, Start: sc.Start, SpecialFirst: sc.SpecialFirst,
			}, d); err != nil {
				return err
			}
		}

		var volts *trace.Series
		if *csvPath != "" {
			if d.Base == nil {
				return fmt.Errorf("-csv needs a base station in the scenario")
			}
			volts, _ = trace.Sample(d.Sim, 10*time.Minute, "base_volts", "V",
				func(time.Time) float64 { return d.Base.Node().Bus.VoltageNow() })
		}

		if *verbose {
			for _, st := range d.Stations {
				name := st.Name()
				st.OnReport(func(r station.RunReport) { printReport(name, r) })
			}
		}

		err = d.RunDays(horizon)
		if ferr := finish(); err == nil {
			err = ferr
		}
		if err != nil {
			return err
		}

		fmt.Printf("=== scenario %s: %d simulated days ===\n", s.Name, horizon)
		fmt.Print(d.Result())
		if rec != nil {
			fmt.Printf("event log (%d events) written to %s\n", rec.Records(), *record)
		}
		if volts != nil {
			f, err := os.Create(*csvPath)
			if err != nil {
				return fmt.Errorf("create csv: %w", err)
			}
			defer func() { _ = f.Close() }()
			if err := volts.WriteCSV(f); err != nil {
				return fmt.Errorf("write csv: %w", err)
			}
			fmt.Printf("voltage trace (%d samples) written to %s\n", volts.Len(), *csvPath)
		}
		return nil
	}
}

// sweepCmd fans the scenario list x seed range out over the sweep engine —
// the whole grid, or only one shard of it when -shard is given (0/1 is
// still a shard run, so scripts parameterised over the shard count work
// at m=1) — locally or, with -remote, across a worker pool — and writes
// the summary in the requested encoding.
func sweepCmd(fs *flag.FlagSet) func([]string) error {
	sc := cliutil.ScenarioFlags(fs)
	seeds := fs.Int("seeds", 4, "consecutive seeds starting at -seed")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	shard := fs.String("shard", "", "run only shard i/m of the grid and write a partial summary")
	remote := fs.String("remote", "", "comma-separated worker addresses to execute the grid on")
	recDir := fs.String("record-dir", "", "record each cell's event log into this directory (implies -no-cache)")
	cacheFlags := cliutil.CacheFlags(fs)
	out := cliutil.OutputFlags(fs)
	return func([]string) error {
		if err := out.Check(fs); err != nil {
			return err
		}
		if err := sc.Check(); err != nil {
			return err
		}
		if *seeds < 1 {
			return cliutil.Usagef("-seeds must be >= 1")
		}
		shardI, shardM, err := parseShard(*shard)
		if err != nil {
			return err
		}
		remoteWorkers, err := cliutil.ParseWorkerList(*remote)
		if err != nil {
			return cliutil.Usagef("-remote: %v", err)
		}
		if *workers != 0 && len(remoteWorkers) > 0 {
			return cliutil.Usagef("-workers sizes the in-process pool; with -remote the workers size their own")
		}
		if *recDir != "" && len(remoteWorkers) > 0 {
			return cliutil.Usagef("-record-dir records local execution; it cannot reach -remote workers")
		}
		cache, err := cacheFlags.Open(len(remoteWorkers) > 0, *recDir != "")
		if err != nil {
			return err
		}

		var names []string
		for _, n := range strings.Split(sc.Name, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		g := sweep.Grid{Scenarios: names, Seeds: sweep.SeedRange(sc.Seed, *seeds), Days: sc.Days}
		if sc.Stations > 0 {
			g.Stations = []int{sc.Stations}
		}
		if sc.Probes > 0 {
			g.Probes = []int{sc.Probes}
		}
		// -start and -special-first become one topology override applied to
		// every cell.
		apply, err := flagOverride(sc.Start, sc.SpecialFirst)
		if err != nil {
			return err
		}
		if apply != nil {
			g.Overrides = []sweep.Override{{Name: "flags", Apply: apply}}
		}
		if *recDir != "" {
			if err := cliutil.RecordCells(&g, *recDir, evlog.Header{Start: sc.Start, SpecialFirst: sc.SpecialFirst}); err != nil {
				return err
			}
		}
		var runner sweep.Runner
		if len(remoteWorkers) > 0 {
			rr := &distrib.RemoteRunner{Workers: remoteWorkers, Logf: cliutil.Logf}
			if apply != nil {
				// The Apply closure cannot cross the wire; the workers rebuild
				// it from the same flag values through the registered hook set.
				rr.Hooks = "glacsim/flags"
				rr.HookArgs = flagsHookArgs(sc.Start, sc.SpecialFirst)
			}
			runner = rr
		} else {
			lr := sweep.LocalRunner{Workers: *workers}
			if cache != nil {
				// Guarded so a disabled cache stays a nil interface, not a
				// typed-nil *DiskCache the runner would call.
				lr.Cache = cache
			}
			runner = lr
		}
		sum, err := sweep.RunShardWith(g, runner, shardI, shardM)
		if err != nil {
			return err
		}
		if cache != nil {
			cliutil.LogCacheStats(cache)
		}
		what := "sweep summary"
		if *shard != "" {
			what = fmt.Sprintf("partial summary (shard %d/%d)", shardI, shardM)
		}
		return writeSummary(sum, what, out)
	}
}

// mergeCmd folds partial summary files into the full-grid summary.
func mergeCmd(fs *flag.FlagSet) func([]string) error {
	out := cliutil.OutputFlags(fs)
	return func(files []string) error {
		if err := out.Check(fs); err != nil {
			return err
		}
		// Zero inputs must be a usage error, never an "empty summary" that
		// looks like a successful merge.
		if len(files) == 0 {
			return cliutil.Usagef("merge needs at least one partial summary file")
		}
		parts := make([]*sweep.Summary, len(files))
		for i, path := range files {
			part, err := sweep.ReadSummaryFile(path)
			if err != nil {
				return err
			}
			parts[i] = part
		}
		sum, err := sweep.MergeSummaries(parts...)
		if err != nil {
			return err
		}
		return writeSummary(sum, fmt.Sprintf("merged summary (%d shards)", len(files)), out)
	}
}

// replayCmd re-runs the scenario a recorded log describes and verifies
// step-for-step equivalence. Everything a replay needs — scenario, seed,
// horizon, overrides — comes from the log's own header, so it has no
// flags. A divergence is a runtime error (exit 1) naming the exact event.
func replayCmd(*flag.FlagSet) func([]string) error {
	return func(args []string) error {
		if len(args) != 1 {
			return cliutil.Usagef("replay needs exactly one event log file")
		}
		path := args[0]
		l, err := evlog.ReadFile(path)
		if err != nil {
			return err
		}
		div, err := evlog.Verify(l)
		if err != nil {
			return err
		}
		if div != nil {
			return fmt.Errorf("replay of %s diverged: %w", path, div)
		}
		fmt.Printf("replay of %s: %d events verified, zero divergences\n", path, len(l.Records))
		return nil
	}
}

// evdiffCmd compares two recorded logs and reports the first divergence
// with context; divergent logs are a runtime error (exit 1).
func evdiffCmd(*flag.FlagSet) func([]string) error {
	return func(args []string) error {
		if len(args) != 2 {
			return cliutil.Usagef("evdiff needs exactly two event log files")
		}
		a, err := evlog.ReadFile(args[0])
		if err != nil {
			return err
		}
		b, err := evlog.ReadFile(args[1])
		if err != nil {
			return err
		}
		d := evlog.Diff(a, b)
		if d == nil {
			fmt.Printf("logs identical: %d events\n", len(a.Records))
			return nil
		}
		fmt.Println(d.Report(a, b))
		return fmt.Errorf("%s and %s diverge at event %d", args[0], args[1], d.Index)
	}
}

// workerCmd serves sweep shards until the process is killed.
func workerCmd(fs *flag.FlagSet) func([]string) error {
	listen := fs.String("listen", "", "listen address (e.g. :8091 or 127.0.0.1:0)")
	maxShards := fs.Int("max-shards", 0, "concurrent shard bound (0 = 2)")
	workers := fs.Int("workers", 0, "per-shard cell worker pool size (0 = GOMAXPROCS)")
	cacheFlags := cliutil.CacheFlags(fs)
	return func([]string) error {
		if *listen == "" {
			return cliutil.Usagef("worker needs -listen ADDR")
		}
		cache, err := cacheFlags.Open(false, false)
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			return fmt.Errorf("worker: %w", err)
		}
		w := &distrib.Worker{MaxShards: *maxShards, CellWorkers: *workers, Logf: cliutil.Logf}
		if cache != nil {
			// The assignment is guarded so a disabled cache stays a nil
			// interface, not a typed-nil *DiskCache the worker would call.
			w.Cache = cache
			cliutil.Logf("glacsim worker: result cache at %s (%d entries)", cache.Dir(), cache.Len())
		}
		// The resolved address on stdout lets scripts use -listen 127.0.0.1:0
		// and scrape the port.
		fmt.Printf("glacsim worker listening on %s\n", l.Addr())
		return distrib.Serve(l, w)
	}
}

func listCmd(*flag.FlagSet) func([]string) error {
	return func([]string) error {
		for _, s := range scenario.List() {
			fmt.Printf("%-18s %3dd  %s\n", s.Name, s.DefaultDays, s.Description)
		}
		return nil
	}
}

// parseShard parses the -shard flag ("i/m"; "" = the whole grid) into a
// usage error on malformed input.
func parseShard(s string) (i, m int, err error) {
	i, m, err = sweep.ParseShardSpec(s)
	if err != nil {
		return 0, 0, cliutil.Usagef("-shard: %v", err)
	}
	return i, m, nil
}

// flagOverride turns the -start/-special-first flags into one topology
// mutation shared by the single-run and sweep paths; nil when neither flag
// is set.
func flagOverride(start string, fixed bool) (func(*deploy.Topology), error) {
	if start == "" && !fixed {
		return nil, nil
	}
	var t0 time.Time
	if start != "" {
		var err error
		if t0, err = time.Parse("2006-01-02", start); err != nil {
			return nil, fmt.Errorf("bad -start: %w", err)
		}
	}
	return func(top *deploy.Topology) {
		if !t0.IsZero() {
			top.Start = t0
		}
		if fixed {
			// Partial runtime overrides merge with the role defaults in Build.
			for i := range top.Stations {
				top.Stations[i].Runtime.SpecialFirst = true
			}
		}
	}, nil
}

func init() {
	distrib.RegisterHooks("glacsim/flags", flagsHooks)
}

// flagsHooks rebuilds the -start/-special-first topology override on the
// worker side of the wire; the args string carries the flag values
// url-encoded (flagsHookArgs).
func flagsHooks(args string, g *sweep.Grid) error {
	v, err := url.ParseQuery(args)
	if err != nil {
		return fmt.Errorf("bad flag args %q: %w", args, err)
	}
	apply, err := flagOverride(v.Get("start"), v.Get("special-first") == "1")
	if err != nil {
		return err
	}
	if apply == nil {
		return fmt.Errorf("flag args %q carry no flags", args)
	}
	for i := range g.Overrides {
		if g.Overrides[i].Name == "flags" {
			g.Overrides[i].Apply = apply
			return nil
		}
	}
	return fmt.Errorf("grid has no %q override to reattach the flags to", "flags")
}

// flagsHookArgs encodes the flag values for the glacsim/flags hook set.
func flagsHookArgs(start string, fixed bool) string {
	v := url.Values{}
	if start != "" {
		v.Set("start", start)
	}
	if fixed {
		v.Set("special-first", "1")
	}
	return v.Encode()
}

// writeSummary encodes a summary to stdout or a file.
func writeSummary(sum *sweep.Summary, what string, out *cliutil.Output) error {
	encode := func(w io.Writer) error {
		switch out.Enc {
		case "csv":
			return sum.WriteCSV(w)
		case "cells-csv":
			return sum.WriteCellsCSV(w)
		case "groups-csv":
			return sum.WriteGroupsCSV(w)
		case "json":
			return sum.WriteJSON(w)
		default:
			_, err := fmt.Fprint(w, sum)
			return err
		}
	}
	if out.File == "" {
		if err := encode(os.Stdout); err != nil {
			return fmt.Errorf("write %s: %w", what, err)
		}
		return nil
	}
	f, err := os.Create(out.File)
	if err != nil {
		return fmt.Errorf("create %s: %w", out.File, err)
	}
	if err := encode(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", what, err)
	}
	// A failed close is a failed write (unflushed buffers, full disk) —
	// never report a truncated artifact as written.
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", what, err)
	}
	fmt.Printf("%s (%d of %d cells, %d configurations) written to %s as %s\n",
		what, len(sum.Cells), sum.TotalCells, len(sum.Groups), out.File, out.Enc)
	return nil
}

func printReport(name string, r station.RunReport) {
	fmt.Printf("%-9s %s local=%v ov=%2d eff=%v probes=%4d gps=%2d up=%7dB comms=%-5v wd=%-5v %v\n",
		name, r.Date.Format("2006-01-02"), r.LocalState, int(r.Override), r.Effective,
		r.ProbeReadings, r.GPSFilesDrained, r.UploadedBytes, r.CommsOK, r.WatchdogTripped,
		r.WallElapsed.Round(time.Minute))
}
