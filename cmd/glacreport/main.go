// Command glacreport regenerates every table and figure of the paper's
// evaluation from the simulation, plus the numeric claims embedded in the
// text (battery lifetimes, backlog thresholds, sync lag, probe survival).
//
// Usage:
//
//	glacreport -exp all          # everything
//	glacreport -exp t1,t2,f5     # a subset
//	glacreport -campaign -dir artifacts -seeds 3
//	glacreport -campaign -shard 0/3 -dir shard0 -seeds 3
//	glacreport -campaign -merge -dir merged shard0 shard1 shard2
//
// Experiment IDs: t1 t2 f3 f4 f5 f6 x1 x2 x3 x4 x5 x6 x7 x8 x9 ext1 (see
// EXPERIMENTS.md for the index).
//
// With -campaign the tool runs the x-series as one sweep campaign instead
// of printing tables: every grid-shaped study executes on the parallel
// sweep engine and the results land in -dir as two flat CSV tables (cells,
// group folds) and one JSON document per experiment (including per-cell
// voltage series) plus a manifest.json — machine-readable artifacts ready
// for plotting.
//
// -shard i/m runs only shard i of m of every experiment grid, writing the
// partial <id>.json artifacts plus a merge-aware manifest; -campaign
// -merge folds shard directories back into the full artifact set, byte
// for byte identical to an unsharded campaign run.
//
// -record-dir DIR additionally records every cell's full event stream as
// DIR/<exp-id>/cell-NNNN.evlog (DESIGN.md §12) — byte-identical for any
// -workers value, diffable with `glacsim -evdiff`. Campaign logs carry
// their experiment's hook-set name, so `glacsim -replay` refuses them
// (the hooks that shaped the run cannot be rebuilt from a header);
// record a plain grid with `glacsim -sweep -record-dir` for replayable
// cell logs.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/rescache"
	"repro/internal/sweep"
)

const usageLine = "usage: glacreport [-exp IDs] | " +
	"-campaign [-dir DIR] [-seeds N] [-days N] [-workers W] [-shard i/m] [-remote HOST:PORT,...] [-resume] [-cache DIR|-no-cache] [-record-dir DIR] | " +
	"-campaign -merge [-dir DIR] SHARDDIR..."

// usageErrorf marks a bad flag combination: main prints the usage line
// and exits 2, distinct from runtime failures.
var usageErrorf = cliutil.Usagef

// fail prints the error — plus the usage line for usage errors — and exits.
func fail(prefix string, err error) {
	cliutil.Fail(prefix, usageLine, err)
}

type experiment struct {
	id    string
	title string
	run   func() error
}

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		seed      = flag.Int64("seed", 42, "simulation seed")
		campaign  = flag.Bool("campaign", false, "run the x-series as one sweep campaign and write machine-readable artifacts")
		dir       = flag.String("dir", "artifacts", "campaign: artifact output directory")
		seeds     = flag.Int("seeds", 3, "campaign: consecutive seeds per grid starting at -seed")
		days      = flag.Int("days", 0, "campaign: horizon override for grid experiments (0 = per-experiment default)")
		workers   = flag.Int("workers", 0, "campaign: sweep worker pool size (0 = GOMAXPROCS)")
		shard     = flag.String("shard", "", "campaign: run only shard i/m of every experiment grid and write partial artifacts")
		mergeFlag = flag.Bool("merge", false, "campaign: merge shard artifact directories (the positional arguments) into full artifacts")
		remote    = flag.String("remote", "", "campaign: comma-separated glacsim -worker addresses to execute the grids on")
		resume    = flag.Bool("resume", false, "campaign: serve cells already cached under -dir/parts by an interrupted run and run only the rest")
		cacheDir  = flag.String("cache", "", "campaign: result cache directory (default $"+cliutil.CacheEnv+"): serve already-simulated cells from disk")
		noCache   = flag.Bool("no-cache", false, "campaign: ignore $"+cliutil.CacheEnv+" and simulate every cell")
		cacheMB   = flag.Int("cache-max-mb", 0, "campaign: result cache size bound in MiB, LRU-evicted (0 = unbounded)")
		recDir    = flag.String("record-dir", "", "campaign: record each cell's event log into DIR/<exp-id>/cell-NNNN.evlog (implies -no-cache)")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *campaign {
		if err := runCampaignMode(*dir, *seed, *seeds, *days, *workers, *shard, *mergeFlag,
			*remote, *resume, *cacheDir, *noCache, *cacheMB, *recDir, set, flag.Args()); err != nil {
			fail("glacreport -campaign", err)
		}
		return
	}
	// Campaign-only flags are a misuse without -campaign — fail loudly
	// instead of silently running the default table experiments.
	for _, name := range []string{"dir", "seeds", "days", "workers", "shard", "merge", "remote", "resume",
		"cache", "no-cache", "cache-max-mb", "record-dir"} {
		if set[name] {
			fail("glacreport", usageErrorf("-%s configures the sweep campaign; use it with -campaign", name))
		}
	}
	if flag.NArg() > 0 {
		fail("glacreport", usageErrorf("unexpected arguments %q (only -campaign -merge reads directories)", flag.Args()))
	}

	exps := []experiment{
		{"t1", "Table I — characteristics of system components", func() error { return tableI(*seed) }},
		{"t2", "Table II — power states", func() error { return tableII() }},
		{"f3", "Fig 3 — final system architecture (data flows)", func() error { return fig3(*seed) }},
		{"f4", "Fig 4 — daily execution flowchart", func() error { return fig4(*seed) }},
		{"f5", "Fig 5 — diurnal voltage with dGPS ripple and state switch", func() error { return fig5(*seed) }},
		{"f6", "Fig 6 — sub-glacial conductivity at end of winter", func() error { return fig6(*seed) }},
		{"x1", "§III — battery lifetime vs dGPS duty cycle", func() error { return expLifetime() }},
		{"x2", "§II — radio-modem relay vs dual GPRS", func() error { return expArch(*seed) }},
		{"x3", "§V — bulk fetch protocols on the summer channel", func() error { return expBulkFetch(*seed) }},
		{"x4", "§VI — 2 h watchdog: backlog bounds and the single-file deadlock", func() error { return expWatchdog(*seed) }},
		{"x5", "§III — override sync lag between stations", func() error { return expSyncLag(*seed) }},
		{"x6", "§IV — schedule/RTC recovery after total depletion", func() error { return expRecovery(*seed) }},
		{"x7", "§V — probe cohort survival", func() error { return expSurvival() }},
		{"x8", "§VI — remote update feedback latency", func() error { return expUpdate(*seed) }},
		{"x9", "§III — min-rule coordination at fleet scale (8 stations)", func() error { return expFleet(*seed) }},
		{"ext1", "§VII extension — priority data forcing marginal-power comms", func() error { return expPriority(*seed) }},
	}

	want := map[string]bool{}
	runAll := *exp == "all"
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	known := map[string]bool{}
	for _, e := range exps {
		known[e.id] = true
	}
	if !runAll {
		var unknown []string
		for id := range want {
			if !known[id] {
				unknown = append(unknown, id)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "glacreport: unknown experiment ids: %s\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
	}

	for _, e := range exps {
		if !runAll && !want[e.id] {
			continue
		}
		fmt.Printf("\n%s\n%s  %s\n%s\n", rule(), strings.ToUpper(e.id), e.title, rule())
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "glacreport %s: %v\n", e.id, err)
			os.Exit(1)
		}
	}
}

// runCampaignMode validates the campaign flag combinations and dispatches
// to the run, shard-run, remote/resume or merge path.
func runCampaignMode(dir string, seed int64, seeds, days, workers int,
	shard string, merge bool, remote string, resume bool,
	cacheDir string, noCache bool, cacheMB int, recordDir string, set map[string]bool, args []string) error {
	if merge {
		if set["shard"] {
			return usageErrorf("-shard and -merge are exclusive: shards are produced first, merged after")
		}
		// Allowlist, not denylist: a merge takes every campaign parameter
		// from the shard manifests, so any other flag — -seeds, -exp, or
		// one added later — would silently mean nothing.
		if bad := cliutil.FlagsOutside(set, "campaign", "merge", "dir"); len(bad) > 0 {
			return usageErrorf("-%s does not apply to -campaign -merge (the shard manifests carry the campaign parameters)", bad[0])
		}
		return mergeCampaign(dir, args)
	}
	if len(args) > 0 {
		return usageErrorf("unexpected arguments %q (only -merge reads shard directories)", args)
	}
	if set["shard"] && (set["remote"] || resume) {
		return usageErrorf("-shard is exclusive with -remote/-resume: a remote or resumable campaign plans its own slices")
	}
	workerList, err := cliutil.ParseWorkerList(remote)
	if err != nil {
		return usageErrorf("-remote: %v", err)
	}
	if set["workers"] && len(workerList) > 0 {
		return usageErrorf("-workers sizes the in-process pool; with -remote the workers size their own")
	}
	if recordDir != "" {
		if len(workerList) > 0 {
			return usageErrorf("-record-dir records local execution; it cannot reach -remote workers")
		}
		if resume {
			return usageErrorf("-record-dir needs every cell simulated; a -resume campaign skips checkpointed cells")
		}
		if set["cache"] {
			return usageErrorf("-record-dir needs every cell simulated; it cannot combine with -cache")
		}
		// A cache hit serves a cell without simulating it — no events, no
		// log — so a recording campaign bypasses the environment cache too.
		noCache = true
	}
	shardI, shardM, err := sweep.ParseShardSpec(shard)
	if err != nil {
		return usageErrorf("-shard: %v", err)
	}
	var cache *rescache.DiskCache
	if len(workerList) > 0 {
		// The workers consult their own caches (glacsim -worker -cache);
		// an explicit coordinator-side -cache would silently do nothing.
		if set["cache"] {
			return usageErrorf("-cache caches local execution; with -remote give the workers -cache instead")
		}
	} else {
		resolved, err := cliutil.ResolveCacheDir(cacheDir, noCache)
		if err != nil {
			return err
		}
		if resolved != "" {
			if cache, err = rescache.Open(resolved, rescache.Options{
				MaxBytes: int64(cacheMB) << 20,
				Logf:     logStderr,
			}); err != nil {
				return err
			}
		}
	}
	// set["shard"] rather than shardM > 1: an explicit -shard 0/1 is still
	// a shard campaign (partial JSON + merge-aware manifest), so scripts
	// parameterised over the shard count work at m=1 too.
	return runCampaign(dir, seed, seeds, days, workers, shardI, shardM, set["shard"], workerList, resume, cache, recordDir)
}

func rule() string { return strings.Repeat("=", 78) }
