// The worker daemon: the HTTP server side of the shard wire, serving the
// Execute stage to remote coordinators. Like internal/server's Handler it
// is a plain http.Handler over a small route table; unlike the station
// protocol (GET-only, by field constraint) the shard request is a POST —
// the coordinator is a modern process, not a wget on a glacier.
//
// Routes:
//
//	POST /shard    execute a ShardRequest, stream back the partial
//	               summary as the WriteJSON document (409 on fingerprint
//	               drift, 503 at the concurrent-shard bound)
//	GET  /healthz  liveness and load, as JSON
package distrib

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"

	"repro/internal/sweep"
)

// maxRequestBytes bounds a shard request body; grids are axis lists, so
// even million-cell plans stay tiny (cells are enumerated, not listed
// one by one — only the executed indices travel).
const maxRequestBytes = 16 << 20

// Worker serves sweep shards over HTTP.
type Worker struct {
	// MaxShards bounds concurrently executing shard requests; <= 0
	// selects 2. Excess requests get 503 and the coordinator requeues
	// them elsewhere.
	MaxShards int
	// CellWorkers bounds each shard's in-process cell pool; <= 0 selects
	// GOMAXPROCS.
	CellWorkers int
	// Cache, when set, backs every served shard's LocalRunner: cells any
	// coordinator already paid for are served from it, fresh ones
	// populate it. A pool of workers pointed at one shared directory
	// warms one cache together.
	Cache sweep.ResultCache
	// Logf, when set, narrates served shards (one line each).
	Logf func(format string, a ...any)

	mu     sync.Mutex
	active int
	// The last request's plan, keyed by its grid spec + hook set: a
	// coordinator sends many small shards of one grid, and re-enumerating
	// and re-hashing the whole cross-product per request would make a
	// large campaign quadratic in plan size on the worker too.
	planKey string
	plan    []sweep.Cell
	planFP  string
}

// Health is the /healthz document: liveness, load, and which plan the
// worker's one-entry plan cache currently holds — the coordinator quotes
// it when it retires a worker, so "retired after 3 failures" comes with
// the worker's own account of its state.
//
//glacvet:wire
type Health struct {
	Status    string `json:"status"`
	Active    int    `json:"active_shards"`
	MaxShards int    `json:"max_shards"`
	// PlanFP is the fingerprint of the cached plan; empty until the
	// first shard is served.
	PlanFP string `json:"plan_fingerprint,omitempty"`
}

func (w *Worker) logf(format string, a ...any) {
	if w.Logf != nil {
		w.Logf(format, a...)
	}
}

func (w *Worker) maxShards() int {
	if w.MaxShards > 0 {
		return w.MaxShards
	}
	return 2
}

// acquire reserves a shard slot, reporting false at the bound.
func (w *Worker) acquire() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.active >= w.maxShards() {
		return false
	}
	w.active++
	return true
}

func (w *Worker) release() {
	w.mu.Lock()
	w.active--
	w.mu.Unlock()
}

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	switch strings.TrimSuffix(r.URL.Path, "/") {
	case "/healthz":
		if r.Method != http.MethodGet {
			http.Error(rw, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.mu.Lock()
		h := Health{Status: "ok", Active: w.active, MaxShards: w.maxShards(), PlanFP: w.planFP}
		w.mu.Unlock()
		rw.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(rw).Encode(h); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
		}
	case "/shard":
		if r.Method != http.MethodPost {
			http.Error(rw, "POST only", http.StatusMethodNotAllowed)
			return
		}
		w.serveShard(rw, r)
	default:
		http.NotFound(rw, r)
	}
}

// serveShard decodes, validates and executes one shard request.
func (w *Worker) serveShard(rw http.ResponseWriter, r *http.Request) {
	req, err := decodeShardRequest(http.MaxBytesReader(rw, r.Body, maxRequestBytes))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if !w.acquire() {
		rw.Header().Set("Retry-After", "1")
		http.Error(rw, fmt.Sprintf("worker at capacity (%d shards in flight)", w.maxShards()),
			http.StatusServiceUnavailable)
		return
	}
	sum, status, err := w.runShard(req)
	if err != nil {
		http.Error(rw, err.Error(), status)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	if err := sum.WriteJSON(rw); err != nil {
		// The header is gone; all we can do is log and drop the
		// connection so the coordinator sees a failed shard and requeues.
		w.logf("distrib worker: write partial summary: %v", err)
		return
	}
	w.logf("distrib worker: served %d cells of plan %s", len(req.Indices), req.Fingerprint)
}

// decodeShardRequest decodes a POST /shard body and checks its protocol
// version.
func decodeShardRequest(r io.Reader) (ShardRequest, error) {
	var req ShardRequest
	// A field this worker does not know is part of a grid it cannot
	// rebuild; dropping it would run a narrower grid than was asked for.
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return ShardRequest{}, fmt.Errorf("bad shard request: %v", err)
	}
	if req.V != WireVersion {
		return ShardRequest{}, fmt.Errorf("shard request version %d, this worker speaks %d", req.V, WireVersion)
	}
	return req, nil
}

// runShard plans, verifies and executes one decoded shard request; on
// failure it also returns the HTTP status that describes it. It releases
// the caller's shard slot before the reply goes out: a coordinator that
// has read one reply may send its next shard at once, and must not find
// the finished one still counted in flight.
func (w *Worker) runShard(req ShardRequest) (*sweep.Summary, int, error) {
	defer w.release()
	g, err := req.BuildGrid()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	plan, fp, err := w.planFor(req, g)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("plan: %v", err)
	}
	// The provenance gate: a worker whose scenario registry, hook set or
	// binary drifted from the coordinator's enumerates a different plan —
	// refuse loudly rather than compute cells from the wrong grid.
	if fp != req.Fingerprint || len(plan) != req.TotalCells {
		return nil, http.StatusConflict, fmt.Errorf("plan mismatch: this worker computes fingerprint %s over %d cells, request carries %s over %d (grid or binary drift)",
			fp, len(plan), req.Fingerprint, req.TotalCells)
	}
	cells, err := sweep.CellsAt(plan, req.Indices)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	sum, err := sweep.RunPlanned(g, sweep.LocalRunner{Workers: w.CellWorkers, Cache: w.Cache}, fp, len(plan), cells)
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("run: %v", err)
	}
	return sum, http.StatusOK, nil
}

// planFor enumerates and fingerprints the request's plan, through a
// one-entry cache keyed by the request's own grid spec and hook set (a
// registered hook set is a fixed deterministic function, so equal keys
// mean equal plans). The cache key is built worker-side from the decoded
// request — never from the coordinator's claimed fingerprint, which is
// what the gate in serveShard is there to check.
func (w *Worker) planFor(req ShardRequest, g sweep.Grid) ([]sweep.Cell, string, error) {
	keyBytes, err := json.Marshal(struct {
		Grid  GridSpec
		Hooks string
	}{req.Grid, req.Hooks})
	if err != nil {
		return nil, "", err
	}
	key := string(keyBytes)
	w.mu.Lock()
	if key == w.planKey {
		plan, fp := w.plan, w.planFP
		w.mu.Unlock()
		return plan, fp, nil
	}
	w.mu.Unlock()
	plan, err := sweep.Plan(g)
	if err != nil {
		return nil, "", err
	}
	fp := sweep.Fingerprint(g, plan)
	w.mu.Lock()
	w.planKey, w.plan, w.planFP = key, plan, fp
	w.mu.Unlock()
	return plan, fp, nil
}

// Serve runs a worker daemon on l until the listener closes.
func Serve(l net.Listener, w *Worker) error {
	srv := &http.Server{Handler: w}
	return srv.Serve(l)
}
