// RemoteRunner: the client side of the shard wire. It implements
// sweep.Runner, so the whole local pipeline — RunShardWith, the campaign,
// RunResumable — distributes by swapping one value: Plan and Reduce stay
// in the coordinating process, only Execute crosses the network.
package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sweep"
)

// RemoteRunner executes planned cells on a pool of worker daemons. Cells
// are cut into shards (small index batches), queued, and pulled by one
// dispatch loop per worker; a shard that fails — connection dropped,
// non-200 status, mismatched fingerprint, mangled cells — is requeued for
// any other worker, up to shardAttempts tries, and a worker that keeps
// failing retires from the pool. The zero value is not usable: Workers is
// required.
type RemoteRunner struct {
	// Workers lists worker base URLs ("host:port" or "http://host:port").
	Workers []string
	// Hooks names a hook set registered in the worker binary, reattached
	// to the grid before planning; empty for declarative grids. The hook
	// set reads its parameters from the grid itself (override names), so
	// everything that shapes a cell travels in the fingerprinted plan.
	Hooks string
	// HTTP overrides the transport (tests inject short timeouts); nil
	// selects http.DefaultClient. Shard executions can legitimately take
	// minutes, so no default timeout is imposed — a dead worker shows up
	// as a dropped connection, not a timeout.
	HTTP *http.Client
	// Logf, when set, narrates retries, requeues and retirements.
	Logf func(format string, a ...any)
}

// job is one queued shard: a batch of cells plus its failure history.
type job struct {
	cells    []sweep.Cell
	attempts int
	errs     []string
	// lastWorker is the worker whose attempt failed most recently: while
	// other workers are live, it must not immediately re-grab the same
	// shard and burn its attempts alone.
	lastWorker string
}

// describe names a job for errors and logs: its global indices plus the
// first cell's label.
func (j *job) describe() string {
	idx := make([]int, len(j.cells))
	for i, c := range j.cells {
		idx[i] = c.Index
	}
	if len(j.cells) == 0 {
		return "cells []"
	}
	return fmt.Sprintf("cells %v (%s, ...)", idx, j.cells[0].Label())
}

func (r *RemoteRunner) logf(format string, a ...any) {
	if r.Logf != nil {
		r.Logf(format, a...)
	}
}

// The pool's failure bounds.
const (
	// shardAttempts caps tries per shard before the run fails with a
	// descriptive error naming the shard.
	shardAttempts = 3
	// workerFails retires a worker after that many consecutive failures.
	// Retiring is per-run: the next Run tries every worker afresh.
	workerFails = 3
	// shardsPerWorker sizes shards to roughly this many per worker, so a
	// lost worker costs a fraction of the plan and the pool load-balances.
	shardsPerWorker = 4
)

// baseURL normalises a worker address to a URL. Trailing slashes go for
// every form — "host:port/" would otherwise produce "//shard" paths that
// 404 on each dispatch.
func baseURL(addr string) string {
	addr = strings.TrimRight(addr, "/")
	if strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
}

// busyDelay paces a dispatch loop that was told 503 worker-at-capacity
// before it asks again, and busyRetire bounds how long it keeps asking (a
// pool that is permanently saturated by someone else must eventually be an
// error, not a spin). handoffDelay paces a worker waiting for someone else
// to take a shard it just failed. retryDelay is a failing worker's backoff
// per consecutive failure before it reads the queue again. Variables so
// tests can tighten the pacing.
var (
	busyDelay    = 250 * time.Millisecond
	busyRetire   = 40
	handoffDelay = 50 * time.Millisecond
	retryDelay   = 100 * time.Millisecond
)

// errWorkerBusy marks a 503 from the worker's concurrent-shard bound:
// backpressure, not failure — the shard requeues without burning an
// attempt and the worker earns no retirement strike.
var errWorkerBusy = fmt.Errorf("worker at capacity")

// Run plans g itself and executes cells through RunPlanned. It is not
// part of sweep.Runner; it remains for callers that hold no plan identity.
func (r *RemoteRunner) Run(g sweep.Grid, cells []sweep.Cell) ([]sweep.CellResult, error) {
	plan, err := sweep.Plan(g)
	if err != nil {
		return nil, err
	}
	return r.RunPlanned(g, sweep.Fingerprint(g, plan), len(plan), cells)
}

// RunPlanned implements sweep.Runner: execute the planned cells across the
// worker pool and return their results in plan order. Per-cell build/run
// failures travel inside the partial summaries as CellResult.Err, exactly
// as on a local runner; RunPlanned itself errors only when shards cannot
// be executed at all — a shard out of attempts, or every worker dead.
func (r *RemoteRunner) RunPlanned(g sweep.Grid, fp string, total int, cells []sweep.Cell) ([]sweep.CellResult, error) {
	if len(r.Workers) == 0 {
		return nil, fmt.Errorf("distrib: remote runner has no workers")
	}
	if len(cells) == 0 {
		return nil, nil
	}

	// Cut the cells into shards: small enough that work spreads across
	// the pool and a retry repeats a fraction of the plan, large enough
	// to amortise a request per shard.
	n := shardsPerWorker * len(r.Workers)
	per := (len(cells) + n - 1) / n
	var jobs []*job
	for start := 0; start < len(cells); start += per {
		end := start + per
		if end > len(cells) {
			end = len(cells)
		}
		jobs = append(jobs, &job{cells: cells[start:end]})
	}

	// Every job lives either in the queue or in exactly one dispatch
	// loop, and a failing loop requeues before retiring — so the buffer
	// never overflows and no job is lost.
	queue := make(chan *job, len(jobs))
	for _, j := range jobs {
		queue <- j
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu        sync.Mutex
		results   []sweep.CellResult
		remaining = len(jobs)
		live      = len(r.Workers)
		runErr    error
		// retired records each retired worker's reason plus its own
		// /healthz account, quoted in the all-retired terminal error.
		retired = map[string]string{}
	)
	done := make(chan struct{})
	var closeOnce sync.Once
	finish := func() { closeOnce.Do(func() { close(done); cancel() }) }

	var wg sync.WaitGroup
	for _, addr := range r.Workers {
		wg.Add(1)
		//glacvet:allow goroutine one dispatch loop per worker; results are re-sorted into plan order before returning
		go func(worker string) {
			defer wg.Done()
			defer func() {
				mu.Lock()
				live--
				mu.Unlock()
			}()
			consecutive, busy := 0, 0
			for {
				select {
				case <-done:
					return
				case j := <-queue:
					// A shard goes back to the pool for *any other* worker
					// first: while others are live, the worker that just
					// failed it must not re-grab it and exhaust its attempt
					// cap alone (with one dead worker and as many shards as
					// workers, that race would abort a run the healthy pool
					// was about to finish).
					mu.Lock()
					handOff := j.lastWorker == worker && live > 1
					mu.Unlock()
					if handOff {
						queue <- j
						select {
						case <-done:
							return
						//glacvet:allow wallclock hand-off pacing on the real network wire; never inside a simulation
						case <-time.After(handoffDelay):
						}
						continue
					}
					sum, err := r.dispatch(ctx, worker, g, fp, total, j)
					if errors.Is(err, errWorkerBusy) {
						// Backpressure: requeue without burning one of the
						// shard's attempts or striking the worker, pace the
						// next ask, and give up on a worker that is never
						// free (someone else's campaign owns the pool).
						busy++
						queue <- j
						r.logf("distrib: worker %s at capacity, shard %s requeued", worker, j.describe())
						if busy >= busyRetire {
							state := fmt.Sprintf("busy %d times; %s", busy, r.healthz(worker))
							mu.Lock()
							retired[worker] = state
							mu.Unlock()
							r.logf("distrib: worker %s retired after reporting %s", worker, state)
							return
						}
						select {
						case <-done:
							return
						//glacvet:allow wallclock 503-backpressure pacing on the real network wire; never inside a simulation
						case <-time.After(busyDelay):
						}
						continue
					}
					if err != nil {
						consecutive++
						mu.Lock()
						j.attempts++
						j.lastWorker = worker
						j.errs = append(j.errs, fmt.Sprintf("%s: %v", worker, err))
						exhausted := j.attempts >= shardAttempts
						if exhausted && runErr == nil {
							runErr = fmt.Errorf("distrib: shard %s failed %d of %d attempts: %s",
								j.describe(), j.attempts, shardAttempts, strings.Join(j.errs, "; "))
						}
						mu.Unlock()
						if exhausted {
							finish()
							return
						}
						r.logf("distrib: worker %s failed shard %s (attempt %d/%d): %v — requeued",
							worker, j.describe(), j.attempts, shardAttempts, err)
						queue <- j
						if consecutive >= workerFails {
							state := fmt.Sprintf("%d consecutive failures; %s", consecutive, r.healthz(worker))
							mu.Lock()
							retired[worker] = state
							mu.Unlock()
							r.logf("distrib: worker %s retired after %s", worker, state)
							return
						}
						// Back off so a fast-failing (dead) worker does
						// not race the healthy pool to the queue.
						select {
						case <-done:
							return
						//glacvet:allow wallclock retry backoff so a dead worker cannot race the healthy pool to the queue
						case <-time.After(time.Duration(consecutive) * retryDelay):
						}
						continue
					}
					consecutive, busy = 0, 0
					mu.Lock()
					results = append(results, sum.Cells...)
					remaining--
					last := remaining == 0
					mu.Unlock()
					if last {
						finish()
						return
					}
				}
			}
		}(baseURL(addr))
	}
	wg.Wait()

	if runErr != nil {
		return nil, runErr
	}
	if remaining > 0 {
		var lasts []string
		for _, j := range jobs {
			if len(j.errs) > 0 {
				lasts = append(lasts, j.errs[len(j.errs)-1])
			}
		}
		// Workers retired purely for reporting busy never fail a shard,
		// so there may be nothing in errs to quote.
		detail := "every worker stayed at capacity (busy) until it retired"
		if len(lasts) > 0 {
			detail = "last failures: " + strings.Join(lasts, "; ")
		}
		// Quote each retiree's reason and its own /healthz account, in
		// stable worker order.
		var addrs []string
		for addr := range retired {
			addrs = append(addrs, addr)
		}
		sort.Strings(addrs)
		var states []string
		for _, addr := range addrs {
			states = append(states, fmt.Sprintf("%s retired after %s", addr, retired[addr]))
		}
		if len(states) > 0 {
			detail += "; " + strings.Join(states, "; ")
		}
		return nil, fmt.Errorf("distrib: all %d workers retired with %d of %d shards outstanding; %s",
			len(r.Workers), remaining, len(jobs), detail)
	}
	// The Runner contract: results in plan order, global indices intact.
	sort.Slice(results, func(i, k int) bool { return results[i].Cell.Index < results[k].Cell.Index })
	return results, nil
}

// healthz fetches a worker's /healthz document for quoting in retirement
// messages — the worker's own account of its state (load, plan-cache
// fingerprint) next to the coordinator's reason for dropping it. Best
// effort with its own short deadline: the worker being probed is one the
// pool is giving up on, and a hung probe must not stall the dispatch
// loop's exit.
func (r *RemoteRunner) healthz(worker string) string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/healthz", nil)
	if err != nil {
		return fmt.Sprintf("healthz: %v", err)
	}
	client := r.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Sprintf("healthz unreachable (%v)", err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
	return fmt.Sprintf("healthz %s: %s", resp.Status, strings.TrimSpace(string(body)))
}

// dispatch posts one shard to one worker and verifies the reply: correct
// plan fingerprint and cell count, and exactly the requested cells. Any
// shortfall is an error, which the caller turns into a requeue.
func (r *RemoteRunner) dispatch(ctx context.Context, worker string, g sweep.Grid, fp string, total int, j *job) (*sweep.Summary, error) {
	indices := make([]int, len(j.cells))
	for i, c := range j.cells {
		indices[i] = c.Index
	}
	body, err := json.Marshal(ShardRequest{
		V: WireVersion, Fingerprint: fp, TotalCells: total, Indices: indices,
		Grid: SpecOf(g), Hooks: r.Hooks,
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	client := r.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode == http.StatusServiceUnavailable {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("%w: %s", errWorkerBusy, strings.TrimSpace(string(msg)))
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	sum, err := sweep.ReadSummary(resp.Body)
	if err != nil {
		return nil, err
	}
	if sum.Fingerprint != fp || sum.TotalCells != total {
		return nil, fmt.Errorf("worker answered for plan %s (%d cells), want %s (%d)",
			sum.Fingerprint, sum.TotalCells, fp, total)
	}
	if len(sum.Cells) != len(j.cells) {
		return nil, fmt.Errorf("worker returned %d cells, want %d", len(sum.Cells), len(j.cells))
	}
	for i, cr := range sum.Cells {
		if cr.Cell != j.cells[i] {
			return nil, fmt.Errorf("worker returned cell %s in place of %s", cr.Cell.Label(), j.cells[i].Label())
		}
	}
	return sum, nil
}
