package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/distrib"
	"repro/internal/evlog"
	"repro/internal/rescache"
	"repro/internal/sweep"
)

// Manifest document written beside the per-experiment artifacts. The
// manifest is merge-aware: a sharded campaign records which shard it is
// and, per experiment, the plan fingerprint and total cell count, so
// mergeCampaign can validate shard directories against each other before
// folding them into the full artifact set.
type campaignManifest struct {
	Campaign string `json:"campaign"`
	Seed     int64  `json:"seed"`
	Seeds    int    `json:"seeds"`
	Days     int    `json:"days,omitempty"`
	// Shard is "i/m" for a partial campaign, empty for a full one.
	Shard       string                 `json:"shard,omitempty"`
	Experiments []campaignManifestItem `json:"experiments"`
	// Cache records the result cache the campaign consulted and its
	// counters across every experiment — a fully warm campaign shows
	// misses 0 and hits equal to the cell total. Absent when the campaign
	// ran uncached, so cached and uncached manifests of one campaign
	// differ only here.
	Cache *cacheManifest `json:"cache,omitempty"`
}

// cacheManifest is the manifest's account of the result cache run.
type cacheManifest struct {
	Dir string `json:"dir"`
	rescache.Stats
}

type campaignManifestItem struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// CellsCSV and GroupsCSV are only written for complete summaries; a
	// shard's partial artifact is its JSON (the merge wire format).
	CellsCSV  string `json:"cells_csv,omitempty"`
	GroupsCSV string `json:"groups_csv,omitempty"`
	JSON      string `json:"json"`
	// Fingerprint identifies the experiment's full plan; shard artifacts
	// with different fingerprints never merge.
	Fingerprint string `json:"fingerprint"`
	Cells       int    `json:"cells"`
	// TotalCells is the full plan's size, recorded when this artifact is
	// a shard holding only Cells of them.
	TotalCells int `json:"total_cells,omitempty"`
	Groups     int `json:"groups"`
	Errors     int `json:"errors,omitempty"`
	// FixedHorizon marks experiments whose driver ignores the campaign's
	// days setting, so the manifest never misdescribes what ran.
	FixedHorizon bool `json:"fixed_horizon,omitempty"`
}

// runCampaign runs every campaign entry as one sweep each — the whole
// grid, or only shard shardI of shardM — and writes the artifact
// directory. A full campaign writes <id>.cells.csv, <id>.groups.csv
// (single-width flat tables any CSV reader takes as-is) and <id>.json per
// experiment; a sharded campaign writes only the partial <id>.json (the
// merge wire format). Both write manifest.json.
//
// With remote workers the grids execute on the distrib pool instead of
// in-process, and with remote or resume the run checkpoints every finished
// cell in a result cache under dir/parts so an interrupted campaign
// restarts from where it stopped (-resume). Whatever the path — local, remote, sharded+merged,
// interrupted+resumed — the final artifacts are byte-identical, because
// everything refolds through the same reducer.
func runCampaign(dir string, seed int64, seeds, days, workers, shardI, shardM int,
	sharded bool, remote []string, resume bool, cache *rescache.DiskCache, recordDir string) error {
	if seeds < 1 {
		return cliutil.Usagef("-seeds must be >= 1")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create artifact dir: %w", err)
	}
	manifest := campaignManifest{
		Campaign: "glacsweb x-series sweep campaign",
		Seed:     seed, Seeds: seeds, Days: days,
		Experiments: []campaignManifestItem{},
	}
	if sharded {
		manifest.Shard = fmt.Sprintf("%d/%d", shardI, shardM)
	}
	checkpointed := len(remote) > 0 || resume
	for _, e := range campaign.Entries() {
		if days > 0 && e.FixedHorizon {
			fmt.Fprintf(os.Stderr, "glacreport %s: custom driver fixes its own horizon; -days %d ignored\n", e.ID, days)
		}
		g := e.Grid(seed, seeds, days)
		if recordDir != "" {
			// Campaign cells run under Drive/Observe/Collect hooks that shape
			// the event stream, so the headers name the hook set: the logs
			// diff and byte-compare across runs but refuse header-only replay.
			if err := cliutil.RecordCells(&g, filepath.Join(recordDir, e.ID), evlog.Header{Hooks: campaign.HooksName(e.ID)}); err != nil {
				return fmt.Errorf("campaign %s: %w", e.ID, err)
			}
		}
		var sum *sweep.Summary
		var err error
		switch {
		case checkpointed:
			sum, err = distrib.RunResumable(g, e.ID, dir, campaignRunner(e.ID, workers, remote, cache),
				campaignChunk(remote), resume, cliutil.Logf)
		case sharded:
			sum, err = sweep.RunShardWith(g, campaignRunner(e.ID, workers, nil, cache), shardI, shardM)
		default:
			sum, err = sweep.RunShardWith(g, campaignRunner(e.ID, workers, nil, cache), 0, 1)
		}
		if err != nil {
			return fmt.Errorf("campaign %s: %w", e.ID, err)
		}
		item, err := writeExperiment(dir, e, sum, sharded)
		if err != nil {
			return err
		}
		manifest.Experiments = append(manifest.Experiments, item)
	}
	if cache != nil {
		manifest.Cache = &cacheManifest{Dir: cache.Dir(), Stats: cache.Stats()}
		cliutil.LogCacheStats(cache)
	}
	if err := writeManifest(dir, manifest); err != nil {
		return err
	}
	// The campaign is complete and its final artifacts are on disk; the
	// checkpoints have graduated.
	if checkpointed {
		if err := distrib.RemoveParts(dir); err != nil {
			return fmt.Errorf("remove checkpoints: %w", err)
		}
	}
	return nil
}

// campaignRunner selects the execute stage for one experiment: the distrib
// worker pool when remote workers are given (with the entry's registered
// hook set named on every shard request), the in-process pool — consulting
// the result cache, when one is open — otherwise.
func campaignRunner(id string, workers int, remote []string, cache *rescache.DiskCache) sweep.Runner {
	if len(remote) == 0 {
		lr := sweep.LocalRunner{Workers: workers}
		if cache != nil {
			// Guarded so a disabled cache stays a nil interface, not a
			// typed-nil *DiskCache the runner would call.
			lr.Cache = cache
		}
		return lr
	}
	return &distrib.RemoteRunner{
		Workers: remote,
		Hooks:   campaign.HooksName(id),
		Logf:    cliutil.Logf,
	}
}

// campaignChunk sizes the checkpoint granularity: big enough to keep a
// remote pool busy, small enough that an interruption loses little work.
func campaignChunk(remote []string) int {
	if n := 2 * len(remote); n > 4 {
		return n
	}
	return 4
}

// mergeCampaign folds shard artifact directories into the full campaign:
// per experiment it reads every shard's partial JSON, merges them
// (validating fingerprints, overlap and coverage) and writes the complete
// artifact set — byte-identical to a single-process campaign run,
// manifest included.
func mergeCampaign(dir string, shardDirs []string) error {
	if len(shardDirs) == 0 {
		return cliutil.Usagef("merge needs the shard artifact directories as arguments")
	}
	manifests := make([]campaignManifest, len(shardDirs))
	for i, sd := range shardDirs {
		m, err := readManifest(filepath.Join(sd, "manifest.json"))
		if err != nil {
			return err
		}
		if m.Shard == "" {
			return fmt.Errorf("%s: not a shard campaign (no shard field in manifest)", sd)
		}
		if i > 0 {
			m0 := manifests[0]
			if m.Campaign != m0.Campaign || m.Seed != m0.Seed || m.Seeds != m0.Seeds || m.Days != m0.Days {
				return fmt.Errorf("%s: shard campaign parameters differ from %s (campaign/seed/seeds/days must match)",
					sd, shardDirs[0])
			}
		}
		manifests[i] = m
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create artifact dir: %w", err)
	}
	manifest := campaignManifest{
		Campaign: manifests[0].Campaign,
		Seed:     manifests[0].Seed, Seeds: manifests[0].Seeds, Days: manifests[0].Days,
		Experiments: []campaignManifestItem{},
	}
	for _, e := range campaign.Entries() {
		parts := make([]*sweep.Summary, len(shardDirs))
		for i, sd := range shardDirs {
			part, err := sweep.ReadSummaryFile(filepath.Join(sd, e.ID+".json"))
			if err != nil {
				return fmt.Errorf("campaign %s: %w", e.ID, err)
			}
			parts[i] = part
		}
		sum, err := sweep.MergeSummaries(parts...)
		if err != nil {
			return fmt.Errorf("campaign %s: %w", e.ID, err)
		}
		item, err := writeExperiment(dir, e, sum, false)
		if err != nil {
			return err
		}
		manifest.Experiments = append(manifest.Experiments, item)
	}
	return writeManifest(dir, manifest)
}

// writeExperiment writes one experiment's artifacts (partial JSON only for
// a shard; the full CSV+JSON set otherwise) and returns its manifest item.
func writeExperiment(dir string, e campaign.Entry, sum *sweep.Summary, sharded bool) (campaignManifestItem, error) {
	item := campaignManifestItem{
		ID: e.ID, Title: e.Title,
		JSON:        e.ID + ".json",
		Fingerprint: sum.Fingerprint,
		Cells:       len(sum.Cells), Groups: len(sum.Groups),
		FixedHorizon: e.FixedHorizon,
	}
	if sharded {
		item.TotalCells = sum.TotalCells
	} else {
		item.CellsCSV = e.ID + ".cells.csv"
		item.GroupsCSV = e.ID + ".groups.csv"
	}
	for _, cr := range sum.Cells {
		if cr.Err != "" {
			item.Errors++
			fmt.Fprintf(os.Stderr, "glacreport %s: cell %s: %s\n", e.ID, cr.Cell.Label(), cr.Err)
		}
	}
	if !sharded {
		if err := writeArtifact(filepath.Join(dir, item.CellsCSV), sum.WriteCellsCSV); err != nil {
			return item, fmt.Errorf("campaign %s: %w", e.ID, err)
		}
		if err := writeArtifact(filepath.Join(dir, item.GroupsCSV), sum.WriteGroupsCSV); err != nil {
			return item, fmt.Errorf("campaign %s: %w", e.ID, err)
		}
	}
	if err := writeArtifact(filepath.Join(dir, item.JSON), sum.WriteJSON); err != nil {
		return item, fmt.Errorf("campaign %s: %w", e.ID, err)
	}
	if sharded {
		fmt.Printf("%-18s %3d of %3d cells  -> %s\n", e.ID, item.Cells, item.TotalCells, item.JSON)
	} else {
		fmt.Printf("%-18s %3d cells  %2d configurations  -> %s, %s, %s\n",
			e.ID, item.Cells, item.Groups, item.CellsCSV, item.GroupsCSV, item.JSON)
	}
	return item, nil
}

// writeManifest writes the campaign manifest beside the artifacts.
func writeManifest(dir string, manifest campaignManifest) error {
	out, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), append(out, '\n'), 0o644); err != nil {
		return fmt.Errorf("write manifest: %w", err)
	}
	fmt.Printf("campaign manifest -> %s\n", filepath.Join(dir, "manifest.json"))
	return nil
}

// readManifest loads a shard directory's manifest.
func readManifest(path string) (campaignManifest, error) {
	var m campaignManifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// writeArtifact streams one encoder into a freshly created file.
func writeArtifact(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
