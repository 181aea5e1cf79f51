// The executor: a Runner turns planned cells into executed CellResults.
// LocalRunner is the in-process bounded worker pool; Run and RunShardWith
// wire the whole pipeline (Plan -> Runner -> Reduce) for the common cases.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/deploy"
	"repro/internal/scenario"
)

// Runner executes planned cells. The caller has planned the grid once and
// hands over the plan's identity — its fingerprint and total cell count —
// with the cells to run, so no runner re-enumerates the cross-product (a
// cache keys its lookups by the fingerprint, a networked runner stamps it
// on every shard request). Implementations must preserve the plan's
// determinism contract: the result for a cell depends only on the grid and
// the cell, never on scheduling, and results are returned in plan order
// with their global Cell.Index intact — that index is what lets Merge fold
// shards executed anywhere back into one summary.
type Runner interface {
	RunPlanned(g Grid, fingerprint string, totalCells int, cells []Cell) ([]CellResult, error)
}

// ResultCache is the pluggable result cache a LocalRunner consults before
// simulating a cell and populates after. A cell result is a pure function
// of (plan fingerprint, cell), so a cache hit is provably safe — but only
// if the implementation upholds the contract: Get must return ok solely
// when the stored entry decodes to exactly the result a fresh simulation
// of c under the fingerprinted plan would produce, with the decoded cell
// identity verified against c. Anything less — a corrupt entry, a format
// drift, an identity mismatch — must be a miss, never a served result.
// Implementations must be safe for concurrent use: RunCached fans its
// Gets out over a pool (internal/rescache is the on-disk
// content-addressed one).
type ResultCache interface {
	// Get returns the cached result for cell c of the plan identified by
	// fingerprint, or ok=false on any miss (absent, stale, corrupt).
	Get(fingerprint string, c Cell) (CellResult, bool)
	// Put stores an executed cell under (fingerprint, cell index). Best
	// effort: a store failure loses only future hits, never the run.
	Put(fingerprint string, cr CellResult)
}

// LocalRunner executes cells on a bounded in-process worker pool.
type LocalRunner struct {
	// Workers bounds the pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Cache, when set, is consulted per cell before simulating, keyed by
	// the plan fingerprint, and populated with freshly simulated results
	// (errored cells are never cached: a failure is not a pure function of
	// the plan).
	Cache ResultCache
}

// RunPlanned implements Runner: it executes the cells concurrently. Per-cell
// build/run failures are recorded in the cell (and later counted in its
// group's Errors), not returned — a 10,000-cell campaign should not abort
// because one configuration fails to build. The cached case is RunCached's
// one-chunk case, over the same pool without a cache.
func (r LocalRunner) RunPlanned(g Grid, fingerprint string, totalCells int, cells []Cell) ([]CellResult, error) {
	if r.Cache == nil {
		return r.runPool(g, cells), nil
	}
	return RunCached(g, LocalRunner{Workers: r.Workers}, r.Cache, fingerprint, totalCells, cells, 0, nil)
}

// runPool simulates every cell on the bounded pool, each result landing at
// its cell's position.
func (r LocalRunner) runPool(g Grid, cells []Cell) []CellResult {
	results := make([]CellResult, len(cells))
	fanOut(len(cells), r.Workers, func(i int) { results[i] = g.runCell(cells[i]) })
	return results
}

// fanOut is the package's one bounded pool: it calls do(i) for every i in
// [0, n) on up to workers goroutines (<= 0: GOMAXPROCS), capped at n, and
// returns once every call has. Each worker claims the next index from a
// shared counter, so a worker finishing a short item never waits on a
// dispatcher to start the next one. do must write only state owned by
// index i; the order the calls run in is not defined.
func fanOut(n, workers int, do func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//glacvet:allow goroutine fanOut is the bounded worker pool; each call writes only its own index, so output order is worker-count independent
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// RunCached is the pipeline's one result-cache loop: every cell is looked
// up in cache (non-nil), hits are served, and the misses run through r in
// chunks of chunk cells (<= 0: one chunk). Each fresh, error-free result
// is Put under fingerprint and lands at its cell's position. A chunk's
// Puts overlap the next chunk's run, so a chunked campaign does not stall
// on their fsyncs; every Put has finished when RunCached returns, error or
// not, so an interrupted run leaves its finished chunks on disk. When
// nothing misses, r is never called. The lookups fan out over the pool
// (GOMAXPROCS), each landing at its cell's position, and the misses are
// collected in plan order once all have returned. progress, when set, is
// told the miss count after the lookups (done 0) and the cells run so far
// after each chunk.
func RunCached(g Grid, r Runner, cache ResultCache, fingerprint string, totalCells int, cells []Cell,
	chunk int, progress func(done, misses int)) ([]CellResult, error) {
	results := make([]CellResult, len(cells))
	hit := make([]bool, len(cells))
	fanOut(len(cells), 0, func(i int) { results[i], hit[i] = cache.Get(fingerprint, cells[i]) })
	var misses []int
	for i, ok := range hit {
		if !ok {
			misses = append(misses, i)
		}
	}
	if progress == nil {
		progress = func(int, int) {}
	}
	progress(0, len(misses))
	if len(misses) == 0 {
		return results, nil
	}
	if chunk <= 0 {
		chunk = len(misses)
	}
	puts := make(chan []CellResult, 1)
	stored := make(chan struct{})
	//glacvet:allow goroutine the cache writer only stores results already placed in plan order; RunCached waits for it before returning
	go func() {
		defer close(stored)
		for batch := range puts {
			for _, cr := range batch {
				if cr.Err == "" {
					cache.Put(fingerprint, cr)
				}
			}
		}
	}()
	defer func() {
		close(puts)
		<-stored
	}()
	for start := 0; start < len(misses); start += chunk {
		todo := misses[start:min(start+chunk, len(misses))]
		batch := make([]Cell, len(todo))
		for k, i := range todo {
			batch[k] = cells[i]
		}
		got, err := r.RunPlanned(g, fingerprint, totalCells, batch)
		if err != nil {
			return nil, err
		}
		if len(got) != len(batch) {
			return nil, fmt.Errorf("sweep: runner returned %d results for %d cells", len(got), len(batch))
		}
		for k, i := range todo {
			if got[k].Cell.Index != batch[k].Index {
				return nil, fmt.Errorf("sweep: runner returned cell %d where cell %d belongs", got[k].Cell.Index, batch[k].Index)
			}
			results[i] = got[k]
		}
		puts <- got
		progress(start+len(todo), len(misses))
	}
	return results, nil
}

// Run executes the full grid locally: Plan, LocalRunner, Reduce. workers
// <= 0 selects GOMAXPROCS. Run errors only on an invalid grid. It is the
// one-shard, in-process case of RunShardWith, so the full-run and shard
// paths can never drift.
func Run(g Grid, workers int) (*Summary, error) {
	return RunShardWith(g, LocalRunner{Workers: workers}, 0, 1)
}

// RunShardWith executes shard i of m of the grid through r and reduces it
// into a partial Summary: only the shard's cells, with their global
// indices, plus the full plan's fingerprint and cell count so Merge can
// validate and recombine it. Encode it with WriteJSON — that document is
// the shard wire format ReadSummary decodes on the other side. Plan and
// Reduce stay in this process; only Execute crosses to r, which may fan
// the cells out over remote workers.
func RunShardWith(g Grid, r Runner, i, m int) (*Summary, error) {
	plan, err := Plan(g)
	if err != nil {
		return nil, err
	}
	cells, err := Shard(plan, i, m)
	if err != nil {
		return nil, err
	}
	return RunPlanned(g, r, Fingerprint(g, plan), len(plan), cells)
}

// RunPlanned executes already-planned cells through r and reduces them
// into a Summary stamped with the plan's identity — the shared tail of
// every run entry point, and the seam for callers that have planned (and
// fingerprinted) once and must not pay for it again per shard, such as a
// worker daemon serving thousands of requests.
func RunPlanned(g Grid, r Runner, fingerprint string, totalCells int, cells []Cell) (*Summary, error) {
	results, err := r.RunPlanned(g, fingerprint, totalCells, cells)
	if err != nil {
		return nil, err
	}
	sum := Reduce(results)
	sum.Fingerprint = fingerprint
	sum.TotalCells = totalCells
	return sum, nil
}

// runCell builds, runs and measures one independent deployment. The
// named return lets the deferred Record finish hook fail the cell from
// behind any return path.
func (g Grid) runCell(c Cell) (cr CellResult) {
	cr = CellResult{Cell: c}
	top, _, err := scenario.Run{
		Scenario: c.Scenario,
		Params:   scenario.Params{Seed: c.Seed, Stations: c.Stations, Probes: c.Probes, Days: c.Days},
	}.Topology()
	if err != nil {
		cr.Err = err.Error()
		return cr
	}
	for _, ov := range g.Overrides {
		if ov.Name == c.Override && ov.Apply != nil {
			ov.Apply(&top)
		}
	}
	d, err := deploy.Build(top)
	if err != nil {
		cr.Err = err.Error()
		return cr
	}
	if g.Record != nil {
		finish, err := g.Record(c, d)
		if err != nil {
			cr.Err = err.Error()
			return cr
		}
		if finish != nil {
			// Seal the cell's log whichever way the run ends; a seal
			// failure fails the cell, but never masks a run error.
			defer func() {
				if err := finish(); err != nil && cr.Err == "" {
					cr.Err = err.Error()
				}
			}()
		}
	}
	var extra []Metric
	if g.Drive != nil {
		extra, cr.Series, err = g.Drive(c, d)
	} else {
		err = d.RunDays(c.Days)
	}
	if err != nil {
		cr.Err = err.Error()
		return cr
	}
	// One exact-capacity metrics slice per cell: the standard block plus
	// whatever Drive contributes.
	cr.Metrics = make([]Metric, 0, numStandardMetrics+len(extra))
	cr.Metrics = appendStandardMetrics(cr.Metrics, d.Result())
	cr.Metrics = append(cr.Metrics, extra...)
	return cr
}

// numStandardMetrics is the size of the fleet-total block
// appendStandardMetrics emits.
const numStandardMetrics = 10

// appendStandardMetrics appends the fleet-total metrics every cell reports.
func appendStandardMetrics(dst []Metric, r deploy.Result) []Metric {
	f := r.Fleet
	return append(dst,
		Metric{Name: "runs", Value: float64(f.Runs)},
		Metric{Name: "completed-runs", Value: float64(f.CompletedRuns)},
		Metric{Name: "watchdog-trips", Value: float64(f.WatchdogTrips)},
		Metric{Name: "comms-failures", Value: float64(f.CommsFailures)},
		Metric{Name: "specials", Value: float64(f.SpecialsExecuted)},
		Metric{Name: "recoveries", Value: float64(f.Recoveries)},
		Metric{Name: "probes-alive", Value: float64(f.ProbesAlive)},
		Metric{Name: "probe-readings", Value: float64(f.ProbeReadings)},
		Metric{Name: "mb-to-server", Value: float64(f.BytesToServer) / (1 << 20)},
		Metric{Name: "uploads", Value: float64(f.Uploads)},
	)
}
