package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/distrib"
	"repro/internal/rescache"
	"repro/internal/sweep"
)

// poolWorkers caps the benchmark's concurrency at the runner's two cores:
// the local pool's size, and the number of loopback workers.
const poolWorkers = 2

// remoteChunk is glacreport's checkpoint chunk for a two-worker pool.
const remoteChunk = 4

type campaignMode int

const (
	modeCold campaignMode = iota
	modeWarm
	modeRemote
)

// campaignJob runs the x-series campaign the way glacreport -campaign
// does: per catalogue grid, plan, execute, reduce and write the CSV and
// JSON artifacts into a fresh directory.
type campaignJob struct {
	mode     campaignMode
	cfg      config
	work     string
	cacheDir string // campaign_warm: the cache the set-up filled
	pool     *workerPool
}

func setupCampaign(mode campaignMode) func(cfg config, work string) (*job, error) {
	return func(cfg config, work string) (*job, error) {
		c := &campaignJob{mode: mode, cfg: cfg, work: work}
		j := &job{iterate: c.iterate, close: func() {}}
		switch mode {
		case modeWarm:
			c.cacheDir = filepath.Join(work, "cache")
			cold := &campaignJob{mode: modeCold, cfg: cfg, work: work, cacheDir: c.cacheDir}
			out, err := cold.iterate(nil)
			if err != nil {
				return nil, fmt.Errorf("fill cache: %w", err)
			}
			j.setupOuts = append(j.setupOuts, out)
		case modeRemote:
			p, err := startWorkers(poolWorkers)
			if err != nil {
				return nil, err
			}
			c.pool = p
			j.close = p.close
		}
		return j, nil
	}
}

func (c *campaignJob) iterate(tr *tracer) (outcome, error) {
	dir, err := os.MkdirTemp(c.work, "artifacts-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	// campaign_cold's fresh cache, created before the clock starts.
	cacheDir := c.cacheDir
	if c.mode == modeCold && cacheDir == "" {
		if cacheDir, err = os.MkdirTemp(c.work, "cache-"); err != nil {
			return outcome{}, err
		}
		defer os.RemoveAll(cacheDir)
	}
	if c.pool != nil {
		c.pool.tr.Store(tr)
		defer c.pool.tr.Store(nil)
		c.pool.transport.reset()
	}

	out := outcome{files: map[string]string{}}
	clk := startIteration(tr)
	var cache sweep.ResultCache
	if c.mode != modeRemote {
		id := tr.begin("rescache.open", clk.root)
		dc, err := rescache.Open(cacheDir, rescache.Options{})
		tr.end(id)
		if err != nil {
			return out, err
		}
		cache = dc
		if tr != nil {
			cache = tracedCache{c: dc, tr: tr}
		}
	}
	for _, e := range campaign.Entries() {
		exp := tr.begin("experiment", clk.root)
		g := e.Grid(c.cfg.Seed, c.cfg.Seeds, c.cfg.Days)
		if tr != nil {
			g.Record = tr.recordCell
		}
		var sum *sweep.Summary
		var err error
		if c.mode == modeRemote {
			sum, err = c.runRemote(tr, exp, g, e.ID, dir)
		} else {
			sum, err = runLocal(tr, exp, g, cache)
		}
		if err != nil {
			return out, fmt.Errorf("campaign %s: %w", e.ID, err)
		}
		out.attempted += len(sum.Cells)
		for _, cr := range sum.Cells {
			if cr.Err != "" {
				out.failed++
			}
		}
		id := tr.begin("sweep.encode", exp)
		for _, a := range []struct {
			name  string
			write func(io.Writer) error
		}{
			{e.ID + ".cells.csv", sum.WriteCellsCSV},
			{e.ID + ".groups.csv", sum.WriteGroupsCSV},
			{e.ID + ".json", sum.WriteJSON},
		} {
			digest, n, err := writeArtifact(filepath.Join(dir, a.name), a.write)
			if err != nil {
				return out, fmt.Errorf("campaign %s: %w", e.ID, err)
			}
			out.files[a.name] = digest
			tr.add("artifact_bytes", float64(n))
		}
		tr.end(id)
		tr.end(exp)
	}
	if c.mode == modeRemote {
		// glacreport drops the graduated checkpoints once the artifacts
		// are written.
		if err := distrib.RemoveParts(dir); err != nil {
			return out, err
		}
	}
	out.wall = clk.stop()
	out.ops = []time.Duration{out.wall}
	out.items = out.attempted
	if c.pool != nil {
		n, failed := c.pool.transport.counts()
		out.attempted += n
		out.failed += failed
	}
	return out, nil
}

// runLocal is the local campaign path: sweep.RunShardWith's Plan,
// Fingerprint, RunPlanned and Reduce, called one by one so each is timed.
func runLocal(tr *tracer, exp int, g sweep.Grid, cache sweep.ResultCache) (*sweep.Summary, error) {
	id := tr.begin("sweep.plan", exp)
	plan, err := sweep.Plan(g)
	var fp string
	if err == nil {
		fp = sweep.Fingerprint(g, plan)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("sweep.execute", exp)
	tr.setParents(id, 0)
	results, err := sweep.LocalRunner{Workers: poolWorkers, Cache: cache}.RunPlanned(g, fp, len(plan), plan)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("sweep.reduce", exp)
	sum := sweep.Reduce(results)
	sum.Fingerprint, sum.TotalCells = fp, len(plan)
	tr.end(id)
	return sum, nil
}

// runRemote is glacreport -campaign -remote: RunResumable over the
// loopback workers, which plans, checkpoints and merges on its own.
func (c *campaignJob) runRemote(tr *tracer, exp int, g sweep.Grid, id, dir string) (*sweep.Summary, error) {
	hooks := campaign.HooksName(id)
	if tr != nil {
		// A traced run names a hook set that adds the cell recorder to the
		// campaign's own hooks on the worker side.
		hooks = c.pool.tracedHooks(hooks)
	}
	remote := &distrib.RemoteRunner{Workers: c.pool.addrs, Hooks: hooks, HTTP: c.pool.client}
	var r sweep.Runner = remote
	span := tr.begin("sweep.execute", exp)
	if tr != nil {
		r = chunkRunner{r: remote, tr: tr, parent: span}
	}
	sum, err := distrib.RunResumable(g, id, dir, r, remoteChunk, false, nil)
	tr.end(span)
	return sum, err
}

// chunkRunner times each chunk RunResumable hands the remote runner, so
// the time between chunks (checkpoint writes, merge) shows as its own.
type chunkRunner struct {
	r      *distrib.RemoteRunner
	tr     *tracer
	parent int
}

func (c chunkRunner) Run(g sweep.Grid, cells []sweep.Cell) ([]sweep.CellResult, error) {
	return c.r.Run(g, cells)
}

func (c chunkRunner) RunPlanned(g sweep.Grid, fp string, total int, cells []sweep.Cell) ([]sweep.CellResult, error) {
	id := c.tr.begin("distrib.chunk", c.parent)
	c.tr.setParents(0, id)
	defer c.tr.end(id)
	return c.r.RunPlanned(g, fp, total, cells)
}

// writeArtifact streams one encoder into a freshly created file, as
// glacreport does, and returns the bytes' SHA-256 and count.
func writeArtifact(path string, write func(io.Writer) error) (string, int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	cw := &countWriter{w: io.MultiWriter(f, h)}
	if err := write(cw); err != nil {
		_ = f.Close()
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), cw.n, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// tracerRef points at the tracer of the iteration in flight, for the
// observers that live as long as the worker pool.
type tracerRef = atomic.Pointer[tracer]

// workerPool is two distrib.Workers served on loopback ports, each running
// one shard at a time on one cell goroutine.
type workerPool struct {
	addrs     []string
	srvs      []*http.Server
	wg        sync.WaitGroup
	client    *http.Client
	transport *shardTransport
	tr        tracerRef
	hookNames map[string]string
}

// hookSeq keeps the hook-set names of traced pools unique in the process
// registry, which refuses a name twice.
var hookSeq atomic.Int64

func startWorkers(n int) (*workerPool, error) {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.Proxy = nil
	p := &workerPool{hookNames: map[string]string{}}
	p.transport = &shardTransport{base: base, tr: &p.tr}
	p.client = &http.Client{Transport: p.transport}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, err
		}
		w := &distrib.Worker{MaxShards: 1, CellWorkers: 1}
		srv := &http.Server{Handler: tracedHandler{h: w, tr: &p.tr}}
		p.srvs = append(p.srvs, srv)
		p.addrs = append(p.addrs, l.Addr().String())
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			_ = srv.Serve(l)
		}()
	}
	return p, nil
}

// close stops the servers and waits for their Serve loops to return.
func (p *workerPool) close() {
	for _, srv := range p.srvs {
		_ = srv.Close()
	}
	p.wg.Wait()
	p.client.CloseIdleConnections()
}

// tracedHooks registers, once per pool and campaign hook set, a hook set
// that applies the campaign's hooks and then the cell recorder of the
// iteration in flight.
func (p *workerPool) tracedHooks(name string) string {
	if traced, ok := p.hookNames[name]; ok {
		return traced
	}
	campaignHooks, ok := distrib.LookupHooks(name)
	if !ok {
		panic("bench: campaign hook set " + name + " is not registered")
	}
	traced := fmt.Sprintf("bench/%d/%s", hookSeq.Add(1), name)
	distrib.RegisterHooks(traced, func(args string, g *sweep.Grid) error {
		if err := campaignHooks(args, g); err != nil {
			return err
		}
		if tr := p.tr.Load(); tr != nil {
			g.Record = tr.recordCell
		}
		return nil
	})
	p.hookNames[name] = traced
	return traced
}

// shardTransport counts the shard wire's requests and failures (non-200
// replies and transport errors) on every run, and on a traced run also
// times each request from send to the close of its reply and counts the
// bytes each way.
type shardTransport struct {
	base               http.RoundTripper
	tr                 *tracerRef
	requests, failures atomic.Int64
}

func (s *shardTransport) reset() {
	s.requests.Store(0)
	s.failures.Store(0)
}

func (s *shardTransport) counts() (requests, failures int) {
	return int(s.requests.Load()), int(s.failures.Load())
}

func (s *shardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s.requests.Add(1)
	tr := s.tr.Load()
	id := 0
	if tr != nil {
		_, parent := tr.parents()
		id = tr.begin("distrib.shard", parent)
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	t0 := time.Now()
	resp, err := s.base.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		s.failures.Add(1)
		tr.add("retries", 1)
		tr.end(id)
		return resp, err
	}
	if tr != nil {
		tr.add("wire_up", float64(req.ContentLength))
		resp.Body = &shardBody{ReadCloser: resp.Body, done: func(n int64) {
			tr.add("shards", 1)
			tr.add("wire_down", float64(n))
			tr.sample("shard_s", time.Since(t0).Seconds())
			tr.end(id)
		}}
	}
	return resp, nil
}

// shardBody counts a reply's bytes and ends its shard span on Close.
type shardBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *shardBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *shardBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}
