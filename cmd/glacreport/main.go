// Command glacreport regenerates every table and figure of the paper's
// evaluation from the simulation, plus the numeric claims embedded in the
// text (battery lifetimes, backlog thresholds, sync lag, probe survival).
//
// Usage:
//
//	glacreport exp                # everything
//	glacreport exp t1 t2 f5       # a subset (commas work too: t1,t2,f5)
//	glacreport campaign -dir artifacts -seeds 3
//	glacreport campaign -shard 0/3 -dir shard0 -seeds 3
//	glacreport merge -dir merged shard0 shard1 shard2
//
// Experiment IDs: t1 t2 f3 f4 f5 f6 x1 x2 x3 x4 x5 x6 x7 x8 x9 ext1 (see
// EXPERIMENTS.md for the index); "all", anywhere in the list, selects
// every one. Each subcommand parses its own flags, so a flag that belongs
// to another subcommand is an error (exit 2), never silently ignored.
//
// campaign runs the x-series as one sweep campaign instead of printing
// tables: every grid-shaped study executes on the parallel sweep engine
// and the results land in -dir as two flat CSV tables (cells, group
// folds) and one JSON document per experiment (including per-cell voltage
// series) plus a manifest.json — machine-readable artifacts ready for
// plotting.
//
// -shard i/m runs only shard i of m of every experiment grid, writing the
// partial <id>.json artifacts plus a merge-aware manifest; merge folds
// shard directories back into the full artifact set, byte for byte
// identical to an unsharded campaign run.
//
// -record-dir DIR additionally records every cell's full event stream as
// DIR/<exp-id>/cell-NNNN.evlog (DESIGN.md §12) — byte-identical for any
// -workers value, diffable with `glacsim evdiff`. Campaign logs carry
// their experiment's hook-set name, so `glacsim replay` refuses them
// (the hooks that shaped the run cannot be rebuilt from a header);
// record a plain grid with `glacsim sweep -record-dir` for replayable
// cell logs.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/sweep"
)

type experiment struct {
	id    string
	title string
	run   func() error
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		cliutil.Fail("glacreport", err)
	}
}

// run executes one glacreport command line (without the program name).
func run(args []string) error {
	return cliutil.Run("glacreport", []cliutil.Command{
		{Name: "exp", Args: "[ID...]", Summary: "print the paper's tables, figures and claims (no IDs = all)", Flags: expCmd},
		{Name: "campaign", Summary: "run the x-series as one sweep campaign and write machine-readable artifacts", Flags: campaignCmd},
		{Name: "merge", Args: "SHARDDIR...", Summary: "merge shard campaign directories into the full artifact set", Flags: mergeCmd},
	}, args)
}

func expCmd(fs *flag.FlagSet) func([]string) error {
	seed := fs.Int64("seed", 42, "simulation seed")
	return func(ids []string) error {
		exps, err := selectExperiments(experiments(*seed), ids)
		if err != nil {
			return err
		}
		for _, e := range exps {
			fmt.Printf("\n%s\n%s  %s\n%s\n", rule(), strings.ToUpper(e.id), e.title, rule())
			if err := e.run(); err != nil {
				return fmt.Errorf("%s: %w", e.id, err)
			}
		}
		return nil
	}
}

func experiments(seed int64) []experiment {
	return []experiment{
		{"t1", "Table I — characteristics of system components", func() error { return tableI(seed) }},
		{"t2", "Table II — power states", func() error { return tableII() }},
		{"f3", "Fig 3 — final system architecture (data flows)", func() error { return fig3(seed) }},
		{"f4", "Fig 4 — daily execution flowchart", func() error { return fig4(seed) }},
		{"f5", "Fig 5 — diurnal voltage with dGPS ripple and state switch", func() error { return fig5(seed) }},
		{"f6", "Fig 6 — sub-glacial conductivity at end of winter", func() error { return fig6(seed) }},
		{"x1", "§III — battery lifetime vs dGPS duty cycle", func() error { return expLifetime() }},
		{"x2", "§II — radio-modem relay vs dual GPRS", func() error { return expArch(seed) }},
		{"x3", "§V — bulk fetch protocols on the summer channel", func() error { return expBulkFetch(seed) }},
		{"x4", "§VI — 2 h watchdog: backlog bounds and the single-file deadlock", func() error { return expWatchdog(seed) }},
		{"x5", "§III — override sync lag between stations", func() error { return expSyncLag(seed) }},
		{"x6", "§IV — schedule/RTC recovery after total depletion", func() error { return expRecovery(seed) }},
		{"x7", "§V — probe cohort survival", func() error { return expSurvival() }},
		{"x8", "§VI — remote update feedback latency", func() error { return expUpdate(seed) }},
		{"x9", "§III — min-rule coordination at fleet scale (8 stations)", func() error { return expFleet(seed) }},
		{"ext1", "§VII extension — priority data forcing marginal-power comms", func() error { return expPriority(seed) }},
	}
}

// selectExperiments picks the experiments the IDs name, in table order.
// Arguments may hold comma-separated lists; no IDs, or "all" anywhere,
// selects every experiment.
func selectExperiments(exps []experiment, args []string) ([]experiment, error) {
	want := map[string]bool{}
	for _, arg := range args {
		for _, id := range strings.Split(arg, ",") {
			if id = strings.TrimSpace(strings.ToLower(id)); id != "" {
				want[id] = true
			}
		}
	}
	if len(want) == 0 || want["all"] {
		return exps, nil
	}
	var picked []experiment
	for _, e := range exps {
		if want[e.id] {
			picked = append(picked, e)
			delete(want, e.id)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, cliutil.Usagef("unknown experiment ids: %s", strings.Join(unknown, ", "))
	}
	return picked, nil
}

// campaignCmd validates the campaign flag combinations and dispatches to
// the run, shard-run or remote/resume path.
func campaignCmd(fs *flag.FlagSet) func([]string) error {
	dir := fs.String("dir", "artifacts", "artifact output directory")
	seed := fs.Int64("seed", 42, "simulation seed")
	seeds := fs.Int("seeds", 3, "consecutive seeds per grid starting at -seed")
	days := fs.Int("days", 0, "horizon override for grid experiments (0 = per-experiment default)")
	workers := fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	shard := fs.String("shard", "", "run only shard i/m of every experiment grid and write partial artifacts")
	remote := fs.String("remote", "", "comma-separated glacsim worker addresses to execute the grids on")
	resume := fs.Bool("resume", false, "serve cells already cached under -dir/parts by an interrupted run and run only the rest")
	recDir := fs.String("record-dir", "", "record each cell's event log into DIR/<exp-id>/cell-NNNN.evlog (implies -no-cache)")
	cacheFlags := cliutil.CacheFlags(fs)
	return func([]string) error {
		if *shard != "" && (*remote != "" || *resume) {
			return cliutil.Usagef("-shard is exclusive with -remote/-resume: a remote or resumable campaign plans its own slices")
		}
		workerList, err := cliutil.ParseWorkerList(*remote)
		if err != nil {
			return cliutil.Usagef("-remote: %v", err)
		}
		if *workers != 0 && len(workerList) > 0 {
			return cliutil.Usagef("-workers sizes the in-process pool; with -remote the workers size their own")
		}
		if *recDir != "" && len(workerList) > 0 {
			return cliutil.Usagef("-record-dir records local execution; it cannot reach -remote workers")
		}
		if *recDir != "" && *resume {
			return cliutil.Usagef("-record-dir needs every cell simulated; a -resume campaign skips checkpointed cells")
		}
		shardI, shardM, err := sweep.ParseShardSpec(*shard)
		if err != nil {
			return cliutil.Usagef("-shard: %v", err)
		}
		cache, err := cacheFlags.Open(len(workerList) > 0, *recDir != "")
		if err != nil {
			return err
		}
		// *shard != "" rather than shardM > 1: an explicit -shard 0/1 is
		// still a shard campaign (partial JSON + merge-aware manifest), so
		// scripts parameterised over the shard count work at m=1 too.
		return runCampaign(*dir, *seed, *seeds, *days, *workers, shardI, shardM, *shard != "", workerList, *resume, cache, *recDir)
	}
}

// mergeCmd takes every campaign parameter from the shard manifests, so
// -dir is its only flag.
func mergeCmd(fs *flag.FlagSet) func([]string) error {
	dir := fs.String("dir", "artifacts", "merged artifact output directory")
	return func(shardDirs []string) error { return mergeCampaign(*dir, shardDirs) }
}

func rule() string { return strings.Repeat("=", 78) }
