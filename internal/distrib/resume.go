// Resumable campaigns: RunResumable runs a grid through any sweep.Runner
// (local pool or RemoteRunner) in chunks, checkpointing every finished
// cell in a result cache (internal/rescache) private to the campaign. An
// interrupted run leaves its finished chunks on disk; the next run with
// resume set serves those cells from the store and runs only the rest.
// Because the final summary is one Reduce over every cell, a resumed
// campaign's artifacts are byte-identical to an uninterrupted one.
package distrib

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/rescache"
	"repro/internal/sweep"
)

// PartsDirName is the checkpoint subdirectory RunResumable keeps under the
// artifact directory; remove it (RemoveParts) once a campaign has fully
// written its final artifacts.
const PartsDirName = "parts"

// RunResumable executes a grid with chunked checkpointing. Each finished
// cell is stored in the result cache rooted at dir/parts/<id>, keyed by
// the plan fingerprint; with resume set, the cells already stored are
// served from it and only the rest run through r, chunk cells at a time
// (chunk <= 0 selects 8). Without resume the store is cleared first. A
// damaged entry, or one from a different plan, is never served: it costs
// a re-run of its cell, not the campaign. The returned summary is complete
// and carries the plan's fingerprint. logf narrates progress and the
// store's refusals; the store's lookups and writes call it from their own
// goroutines, so it must be safe for concurrent use.
func RunResumable(g sweep.Grid, id, dir string, r sweep.Runner, chunk int, resume bool, logf func(format string, a ...any)) (*sweep.Summary, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	plan, err := sweep.Plan(g)
	if err != nil {
		return nil, err
	}
	fp := sweep.Fingerprint(g, plan)
	store := filepath.Join(dir, PartsDirName, id)
	if !resume {
		if err := os.RemoveAll(store); err != nil {
			return nil, fmt.Errorf("distrib: clear stale checkpoints: %w", err)
		}
	}
	cache, err := rescache.Open(store, rescache.Options{Logf: logf})
	if err != nil {
		return nil, fmt.Errorf("distrib: %s: %w", id, err)
	}
	if chunk <= 0 {
		chunk = 8
	}
	results, err := sweep.RunCached(g, r, cache, fp, len(plan), plan, chunk, func(done, misses int) {
		if done == 0 && misses < len(plan) {
			logf("distrib: %s: resuming — %d of %d cells already checkpointed", id, len(plan)-misses, len(plan))
		} else if done > 0 {
			logf("distrib: %s: ran %d of %d missing cells", id, done, misses)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("distrib: %s: %w", id, err)
	}
	sum := sweep.Reduce(results)
	sum.Fingerprint, sum.TotalCells = fp, len(plan)
	return sum, nil
}

// RemoveParts deletes the checkpoint directory under dir — call it once
// the final artifacts are safely written and the checkpoints have
// graduated.
func RemoveParts(dir string) error {
	return os.RemoveAll(filepath.Join(dir, PartsDirName))
}
