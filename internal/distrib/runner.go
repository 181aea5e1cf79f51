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
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/sweep"
)

// RemoteRunner executes planned cells on a pool of worker daemons. Cells
// are cut into shards (small index batches), queued, and handed to idle
// workers by one decision loop; a shard that fails — connection dropped,
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
	// lastWorker is the pool index of the entry whose attempt failed most
	// recently (-1 before any failure): while other entries are live, it
	// must not take the same shard again and burn its attempts alone.
	lastWorker int
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

// busyDelay pauses a worker that answered 503 worker-at-capacity before
// it is asked again, and busyRetire bounds how long it keeps being asked
// (a pool that is permanently saturated by someone else must eventually
// be an error, not a spin). retryDelay is a failing worker's pause per
// consecutive failure before it takes a shard again. Variables so tests
// can tighten the pacing.
var (
	busyDelay  = 250 * time.Millisecond
	busyRetire = 40
	retryDelay = 100 * time.Millisecond
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
//
// One loop owns the pool: it hands queued shards to idle workers and makes
// every requeue, backoff and retire decision. A dispatch or a backoff runs
// on a goroutine that only reports its end, so no state is shared.
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
		jobs = append(jobs, &job{cells: cells[start:end], lastWorker: -1})
	}

	// member is one pool entry: a worker listed twice is two entries.
	type member struct {
		addr              string
		idle              bool
		consecutive, busy int
		retired           string // the reason, once retired
	}
	pool := make([]member, len(r.Workers))
	for i, addr := range r.Workers {
		pool[i] = member{addr: baseURL(addr), idle: true}
	}
	// reply reports the end of an entry's dispatch (job set) or pause (job
	// nil).
	type reply struct {
		worker int
		job    *job
		sum    *sweep.Summary
		err    error
	}
	// Each entry has at most one dispatch or pause outstanding, so no
	// reply ever waits for buffer space.
	replies := make(chan reply, len(pool))
	ctx, cancel := context.WithCancel(context.Background())
	queue := slices.Clone(jobs)
	var (
		results   []sweep.CellResult
		remaining = len(jobs)
		live      = len(pool)
		inFlight  int
		runErr    error
	)
	pause := func(w int, d time.Duration) {
		pool[w].idle = false
		inFlight++
		//glacvet:allow goroutine a backoff only reports its end to the decision loop
		go func() {
			select {
			case <-ctx.Done():
			//glacvet:allow wallclock backoff pacing on the real network wire; never inside a simulation
			case <-time.After(d):
			}
			replies <- reply{worker: w}
		}()
	}

	for remaining > 0 && runErr == nil {
		// Each idle worker takes the first queued shard it did not fail
		// last. While another entry is live, the entry that failed a shard
		// must not take it again and exhaust its attempt cap alone (with
		// one dead worker and as many shards as workers, that would abort
		// a run the healthy pool was about to finish).
		for w := range pool {
			m := &pool[w]
			if !m.idle || m.retired != "" {
				continue
			}
			i := slices.IndexFunc(queue, func(j *job) bool { return j.lastWorker != w || live == 1 })
			if i < 0 {
				continue
			}
			j := queue[i]
			queue = slices.Delete(queue, i, i+1)
			m.idle = false
			inFlight++
			//glacvet:allow goroutine one dispatch per busy worker; results are re-sorted into plan order before returning
			go func(addr string) {
				sum, err := r.dispatch(ctx, addr, g, fp, total, j)
				replies <- reply{worker: w, job: j, sum: sum, err: err}
			}(m.addr)
		}
		if inFlight == 0 {
			break // every worker retired
		}
		rep := <-replies
		inFlight--
		w, m, j := rep.worker, &pool[rep.worker], rep.job
		m.idle = true
		switch {
		case j == nil:
			// A pause ended: the worker reads the queue again.
		case errors.Is(rep.err, errWorkerBusy):
			// Backpressure: requeue without burning one of the shard's
			// attempts or striking the worker, pace the next ask, and give
			// up on a worker that is never free (someone else's campaign
			// owns the pool).
			m.busy++
			queue = append(queue, j)
			r.logf("distrib: worker %s at capacity, shard %s requeued", m.addr, j.describe())
			if m.busy >= busyRetire {
				m.retired, live = fmt.Sprintf("busy %d times", m.busy), live-1
				r.logf("distrib: worker %s retired after reporting %s", m.addr, m.retired)
			} else {
				pause(w, busyDelay)
			}
		case rep.err != nil:
			m.consecutive++
			j.attempts++
			j.lastWorker = w
			j.errs = append(j.errs, fmt.Sprintf("%s: %v", m.addr, rep.err))
			if j.attempts >= shardAttempts {
				runErr = fmt.Errorf("distrib: shard %s failed %d of %d attempts: %s",
					j.describe(), j.attempts, shardAttempts, strings.Join(j.errs, "; "))
				continue // the loop condition ends the run
			}
			r.logf("distrib: worker %s failed shard %s (attempt %d/%d): %v — requeued",
				m.addr, j.describe(), j.attempts, shardAttempts, rep.err)
			queue = append(queue, j)
			if m.consecutive >= workerFails {
				m.retired, live = fmt.Sprintf("%d consecutive failures", m.consecutive), live-1
				r.logf("distrib: worker %s retired after %s", m.addr, m.retired)
			} else {
				// Back off so a fast-failing (dead) worker does not race
				// the healthy pool to the queue.
				pause(w, time.Duration(m.consecutive)*retryDelay)
			}
		default:
			m.consecutive, m.busy = 0, 0
			results = append(results, rep.sum.Cells...)
			remaining--
		}
	}
	// Cancel what is still out and collect its replies: RunPlanned returns
	// with no dispatch running.
	cancel()
	for ; inFlight > 0; inFlight-- {
		<-replies
	}

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
		// Every worker has retired: quote each one's reason and its own
		// /healthz account, in pool order.
		for _, m := range pool {
			detail += fmt.Sprintf("; %s retired after %s; %s", m.addr, m.retired, r.healthz(m.addr))
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
// pool has given up on, and a hung probe must not hold up the run's
// terminal error. Only that error calls it, after the pool has stopped.
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
