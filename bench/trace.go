package main

import (
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/deploy"
	"repro/internal/sweep"
)

// span is one timed call into a layer. Spans of one iteration share Iter;
// Parent is the ID of the span that caused it (0 for the iteration root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// containerSpans group layer spans without being a layer themselves:
// their self time is the ledger's unattributed remainder.
var containerSpans = map[string]bool{"iteration": true, "experiment": true, "scenario": true}

// layerSpans are the span names the ledger reports, in report order.
var layerSpans = []string{
	"sweep.plan", "rescache.open", "sweep.execute", "rescache.get", "sweep.cell",
	"rescache.put", "distrib.chunk", "distrib.shard", "distrib.serve",
	"sweep.reduce", "sweep.encode", "deploy.build", "simenv.day", "simenv.run",
	"evlog.read", "evlog.verify",
}

// tracer keeps the spans and counters of the traced iterations in memory.
// Every method is safe on a nil tracer and does nothing there, so the
// workloads call it unconditionally and an untraced iteration pays only a
// nil check. The sweep pool and the loopback workers call it from their
// own goroutines, hence the mutex.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	iter    int
	spans   []span
	first   int // index in spans of the current iteration's root
	sums    map[string]float64
	samples map[string][]float64
	mem     runtime.MemStats
	// cellParent is the span cells and cache calls hang under (the local
	// execute span; 0 when cells run on remote workers and are only
	// counted), shardParent the span shard requests hang under.
	cellParent, shardParent int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its ID; 0 on a nil tracer.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: t.iter, Name: name, Start: at, End: at})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	at := t.now()
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// add accumulates a per-iteration counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

// sample records one observation of a per-iteration distribution.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) setParents(cell, shard int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cellParent, t.shardParent = cell, shard
	t.mu.Unlock()
}

func (t *tracer) parents() (cell, shard int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cellParent, t.shardParent
}

// totalAlloc reads the heap's cumulative allocation; 0 on a nil tracer,
// so untraced iterations never stop the world for it.
func (t *tracer) totalAlloc() uint64 {
	if t == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// clock times one iteration and, when traced, opens its root span.
type clock struct {
	t0   time.Time
	tr   *tracer
	root int
}

// startIteration starts an iteration: it resets the tracer's per-iteration
// counters and opens the root span.
func startIteration(tr *tracer) clock {
	if tr != nil {
		tr.mu.Lock()
		tr.iter++
		tr.first = len(tr.spans)
		tr.sums = map[string]float64{}
		tr.samples = map[string][]float64{}
		tr.cellParent, tr.shardParent = 0, 0
		tr.mu.Unlock()
		runtime.ReadMemStats(&tr.mem)
	}
	c := clock{tr: tr}
	c.root = tr.begin("iteration", 0)
	c.t0 = time.Now()
	return c
}

// stop ends the iteration and returns its wall time.
func (c clock) stop() time.Duration {
	wall := time.Since(c.t0)
	c.tr.end(c.root)
	return wall
}

// recordCell is the Grid.Record hook of a traced campaign: it counts each
// simulated cell, times it from the call to its finish func and reads the
// simulator's executed-event count at the end. It attaches nothing to the
// simulator, so the cell runs exactly as untraced.
func (t *tracer) recordCell(_ sweep.Cell, d *deploy.Deployment) (func() error, error) {
	parent, _ := t.parents()
	id := 0
	if parent != 0 {
		id = t.begin("sweep.cell", parent)
	}
	t0 := time.Now()
	return func() error {
		el := time.Since(t0)
		t.mu.Lock()
		t.sums["cells"]++
		t.sums["cell_s"] += el.Seconds()
		t.sums["events"] += float64(d.Sim.Processed())
		t.sums["event_time_ns"] += float64(el.Nanoseconds())
		t.samples["cell_s"] = append(t.samples["cell_s"], el.Seconds())
		t.mu.Unlock()
		t.end(id)
		return nil
	}, nil
}

// tracedCache times a result cache's Get and Put from outside.
type tracedCache struct {
	c  sweep.ResultCache
	tr *tracer
}

func (c tracedCache) Get(fp string, cell sweep.Cell) (sweep.CellResult, bool) {
	parent, _ := c.tr.parents()
	id := c.tr.begin("rescache.get", parent)
	t0 := time.Now()
	cr, ok := c.c.Get(fp, cell)
	c.tr.sample("get_us", float64(time.Since(t0).Nanoseconds())/1e3)
	c.tr.end(id)
	if ok {
		c.tr.add("hits", 1)
	} else {
		c.tr.add("misses", 1)
	}
	return cr, ok
}

func (c tracedCache) Put(fp string, cr sweep.CellResult) {
	parent, _ := c.tr.parents()
	id := c.tr.begin("rescache.put", parent)
	t0 := time.Now()
	c.c.Put(fp, cr)
	c.tr.sample("put_us", float64(time.Since(t0).Nanoseconds())/1e3)
	c.tr.end(id)
}

// spanHeader carries a shard span's ID to the loopback worker, so the
// worker's serve span hangs under the request that caused it.
const spanHeader = "X-Bench-Span"

// tracedHandler times a worker's ServeHTTP from outside. tr points at the
// tracer of the iteration in flight (nil when untraced).
type tracedHandler struct {
	h  http.Handler
	tr *tracerRef
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.h.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	id := tr.begin("distrib.serve", parent)
	t0 := time.Now()
	h.h.ServeHTTP(w, r)
	tr.sample("serve_s", time.Since(t0).Seconds())
	tr.add("serve_s", time.Since(t0).Seconds())
	tr.end(id)
}

// layerValues turns the current iteration's spans and counters into the
// per-layer metrics. workers is the pool size the busy ratios divide by.
func (t *tracer) layerValues(wall time.Duration, workers int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	spans := t.spans[t.first:]
	bySpan := map[string]float64{}
	for _, s := range spans {
		bySpan[s.Name] += float64(s.End-s.Start) / 1e9
	}
	sum, smp := t.sums, t.samples
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	exec := bySpan["sweep.execute"]
	checkpoint := 0.0
	if bySpan["distrib.chunk"] > 0 {
		checkpoint = exec - bySpan["distrib.chunk"]
	}
	v := map[string]float64{
		"sweep.plan_s":              bySpan["sweep.plan"],
		"sweep.execute_s":           exec,
		"sweep.cells_simulated":     sum["cells"],
		"sweep.cell_s_p50":          quantile(smp["cell_s"], 0.5),
		"sweep.cell_s_p99":          quantile(smp["cell_s"], 0.99),
		"sweep.pool_busy_ratio":     ratio(sum["cell_s"], float64(workers)*exec),
		"sweep.reduce_s":            bySpan["sweep.reduce"],
		"sweep.encode_s":            bySpan["sweep.encode"],
		"sweep.artifact_bytes":      sum["artifact_bytes"],
		"rescache.open_s":           bySpan["rescache.open"],
		"rescache.get_us_p50":       quantile(smp["get_us"], 0.5),
		"rescache.get_us_p99":       quantile(smp["get_us"], 0.99),
		"rescache.hit_ratio":        ratio(sum["hits"], sum["hits"]+sum["misses"]),
		"rescache.put_us_p50":       quantile(smp["put_us"], 0.5),
		"rescache.put_s":            bySpan["rescache.put"],
		"distrib.shards":            sum["shards"],
		"distrib.retries":           sum["retries"],
		"distrib.shard_rtt_s_p50":   quantile(smp["shard_s"], 0.5),
		"distrib.shard_rtt_s_p99":   quantile(smp["shard_s"], 0.99),
		"distrib.wire_bytes_up":     sum["wire_up"],
		"distrib.wire_bytes_down":   sum["wire_down"],
		"distrib.serve_s_p50":       quantile(smp["serve_s"], 0.5),
		"distrib.worker_busy_ratio": ratio(sum["serve_s"], float64(workers)*exec),
		"distrib.checkpoint_s":      checkpoint,
		"deploy.build_s":            bySpan["deploy.build"],
		"deploy.build_alloc_mb":     sum["build_alloc_bytes"] / (1 << 20),
		"simenv.events":             sum["events"],
		"simenv.ns_per_event":       ratio(sum["event_time_ns"], sum["events"]),
		"evlog.observe_ns":          ratio(sum["observe_ns"], sum["records"]),
		"evlog.bytes_per_record":    ratio(sum["log_bytes"], sum["records"]),
		"evlog.read_s":              bySpan["evlog.read"],
		"evlog.verify_s":            bySpan["evlog.verify"],
		"runtime.alloc_mb":          float64(ms.TotalAlloc-t.mem.TotalAlloc) / (1 << 20),
		"runtime.gc_cycles":         float64(ms.NumGC - t.mem.NumGC),
	}
	self := ledger(spans)
	unattributed := 0.0
	for name, s := range self {
		if containerSpans[name] {
			unattributed += s
		}
	}
	for _, name := range layerSpans {
		v["ledger."+name+"_s"] = self[name]
	}
	v["ledger.wall_s"] = wall.Seconds()
	v["ledger.unattributed_s"] = unattributed
	return v
}

// ledger splits an iteration's wall time between its spans by self time:
// a span's duration minus the part its children cover. Where sibling spans
// overlap (the two-worker pool, two shards in flight) each overlapping
// instant is shared evenly between them, and a child's share is split
// between its own self time and its children in the same proportions as
// its duration. The returned self times, summed by span name, therefore
// add up to the root span's duration exactly.
func ledger(spans []span) map[string]float64 {
	kids := map[int][]span{}
	var root *span
	for i := range spans {
		if spans[i].Parent == 0 {
			root = &spans[i]
		} else {
			kids[spans[i].Parent] = append(kids[spans[i].Parent], spans[i])
		}
	}
	self := map[string]float64{}
	if root == nil {
		return self
	}
	var walk func(s span, scale float64)
	walk = func(s span, scale float64) {
		children := kids[s.ID]
		type edge struct {
			at   int64
			kid  int
			open bool
		}
		edges := make([]edge, 0, 2*len(children))
		for i, k := range children {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end > start {
				edges = append(edges, edge{start, i, true}, edge{end, i, false})
			}
		}
		// Closes sort before opens at one instant, so back-to-back
		// children never count as overlapping.
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].at != edges[j].at {
				return edges[i].at < edges[j].at
			}
			return !edges[i].open && edges[j].open
		})
		credit := make([]float64, len(children))
		var active []int
		own, prev := 0.0, s.Start
		for _, e := range edges {
			if dt := float64(e.at - prev); dt > 0 {
				if len(active) == 0 {
					own += dt
				}
				for _, k := range active {
					credit[k] += dt / float64(len(active))
				}
			}
			prev = e.at
			if e.open {
				active = append(active, e.kid)
				continue
			}
			for i, k := range active {
				if k == e.kid {
					active = append(active[:i], active[i+1:]...)
					break
				}
			}
		}
		own += float64(s.End - prev)
		self[s.Name] += own * scale / 1e9
		for i, k := range children {
			if d := float64(k.End - k.Start); d > 0 && credit[i] > 0 {
				walk(k, scale*credit[i]/d)
			}
		}
	}
	walk(*root, 1)
	return self
}

// writeSpans saves every recorded span as one JSON array.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
