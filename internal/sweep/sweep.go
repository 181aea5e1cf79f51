// Package sweep is the parallel experiment engine, structured as a
// Plan / Execute / Reduce pipeline:
//
//   - Plan enumerates a declarative Grid — scenario names × seeds ×
//     optional fleet-size and cohort-size axes × named topology overrides —
//     into an ordered []Cell, and Shard slices that plan deterministically
//     for distribution. An Override is the one way to vary anything else
//     about a cell (climate, probe lifetime, start date, faults): it names
//     the change, and Fingerprint hashes the name.
//   - A Runner executes cells; LocalRunner is the bounded worker pool that
//     runs them in-process. A shard run executes only its slice, recording
//     global cell indices. A grid's Drive hook decides what a cell runs
//     and what it reports beyond the standard fleet totals.
//   - Reduce folds executed cells into a Summary with per-metric
//     mean/stddev/min/max for each configuration across its seeds, and
//     MergeSummaries recombines partial summaries from any number of
//     shards into the full-grid summary, byte-identical to a
//     single-process run.
//
// Every cell builds its own independent Deployment (its own Simulator,
// weather, server and fleet), so the determinism guarantee of DESIGN.md §3
// is untouched: a cell's trace depends only on its topology and seed, never
// on which worker — or which machine — ran it or what ran beside it. Cells
// are enumerated in a fixed order and results land by global cell index, so
// the pipeline's output — String(), CSV and JSON alike — is byte-identical
// for any worker count and any shard split.
//
// The grid once had weather and probe-lifetime axes of its own; both are
// now Overrides. Their two slots stay in the byte formats, always empty:
// the CSV headers keep the weather and probe_lifetime columns, and
// Fingerprint hashes each cell with those slots at their old zero values,
// so every artifact, fingerprint and result-cache entry written before the
// axes went is still byte-identical and still a cache hit.
package sweep

import (
	"repro/internal/deploy"
	"repro/internal/trace"
)

// Override is one value of the grid's override axis: a named topology
// mutation applied to each cell it parameterises. Apply may be nil for a
// label-only axis value that a Drive hook interprets instead (e.g. two
// timings of the same intervention).
type Override struct {
	// Name labels the axis value in cells and summaries.
	Name string
	// Apply mutates the cell's resolved topology before Build; nil means
	// the topology is untouched.
	Apply func(*deploy.Topology)
}

// Metric is one named per-cell measurement.
type Metric struct {
	Name  string
	Value float64
}

// Grid declares a sweep: the axes whose cross-product is the cell set,
// plus optional per-cell hooks.
type Grid struct {
	// Scenarios names the registered scenarios to sweep (required).
	Scenarios []string
	// Seeds is the seed axis (required; see SeedRange).
	Seeds []int64
	// Stations is an optional fleet-size axis for parameterised
	// scenarios; empty means one cell with the scenario default (0).
	Stations []int
	// Probes is an optional per-base cohort-size axis; empty means the
	// scenario default.
	Probes []int
	// Overrides is an optional axis of named topology mutations; empty
	// means every cell runs the unmodified topology.
	Overrides []Override
	// Days overrides every cell's horizon (0 = each scenario's default).
	Days int
	// Drive, when set, runs the built deployment in place of RunDays of
	// the cell horizon: it may attach samplers (trace.Sample), run and
	// intervene mid-run, then read the deployment. Its metrics follow the
	// standard block; its series land on CellResult.Series even when it
	// also returns an error. It runs concurrently across cells, but only
	// ever on the cell's own deployment, so it needs no locking of its own.
	Drive func(Cell, *deploy.Deployment) ([]Metric, []*trace.Series, error)
	// Record, when set, is called after the cell's deployment is built but
	// before Drive and the run, so it can attach an event recorder
	// (evlog.Writer.Attach) to the cell's simulator. The returned finish
	// func — which may be nil — is called once the cell's run completes, to
	// seal the log; a finish error fails the cell like any run error. A
	// setup error fails the cell before it runs. Recording rides the same
	// determinism contract as everything else here: a cell's event stream
	// depends only on the grid and the cell, so its recorded log is
	// byte-identical for any worker count or shard split. Same concurrency
	// contract as Drive.
	Record func(Cell, *deploy.Deployment) (finish func() error, err error)
}

// SeedRange returns n consecutive seeds starting at from — the usual seed
// axis of a Grid.
func SeedRange(from int64, n int) []int64 {
	if n <= 0 {
		return nil
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = from + int64(i)
	}
	return seeds
}
