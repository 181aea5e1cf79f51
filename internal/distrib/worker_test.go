package distrib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/rescache"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// testTagHooks is a registered hook set for the tests: it reads a number
// from the grid's "tag=N" override name and attaches a Drive that reports
// it as the "hook-tag" metric after the cell's default run.
func testTagHooks(_ string, g *sweep.Grid) error {
	if len(g.Overrides) != 1 {
		return fmt.Errorf("want one tag override, have %d", len(g.Overrides))
	}
	name := g.Overrides[0].Name
	tag, err := strconv.ParseFloat(strings.TrimPrefix(name, "tag="), 64)
	if err != nil {
		return fmt.Errorf("bad tag override %q: %w", name, err)
	}
	g.Drive = func(c sweep.Cell, d *deploy.Deployment) ([]sweep.Metric, []*trace.Series, error) {
		if err := d.RunDays(c.Days); err != nil {
			return nil, nil, err
		}
		return []sweep.Metric{{Name: "hook-tag", Value: tag}}, nil, nil
	}
	return nil
}

// blockGate gates the "disttest/block" hook set's Drive, so a test can
// hold a shard in flight while probing the worker's concurrency bound. The
// channel is swapped per test run, keeping the package stable under
// -count=N.
var blockGate = struct {
	mu sync.Mutex
	ch chan struct{}
}{ch: make(chan struct{})}

func blockChan() chan struct{} {
	blockGate.mu.Lock()
	defer blockGate.mu.Unlock()
	return blockGate.ch
}

func resetBlockChan() {
	blockGate.mu.Lock()
	defer blockGate.mu.Unlock()
	blockGate.ch = make(chan struct{})
}

func init() {
	RegisterHooks("disttest/tag", testTagHooks)
	RegisterHooks("disttest/block", func(_ string, g *sweep.Grid) error {
		g.Drive = func(sweep.Cell, *deploy.Deployment) ([]sweep.Metric, []*trace.Series, error) {
			<-blockChan()
			return nil, nil, nil
		}
		return nil
	})
}

// shardRequest builds a request for the whole plan of g. An unplannable
// grid yields a request carrying just its spec, which the worker must
// reject with the Plan error.
func shardRequest(t testing.TB, g sweep.Grid, hooks string) ShardRequest {
	t.Helper()
	req := ShardRequest{V: WireVersion, Grid: SpecOf(g), Hooks: hooks}
	plan, err := sweep.Plan(g)
	if err != nil {
		return req
	}
	req.Fingerprint = sweep.Fingerprint(g, plan)
	req.TotalCells = len(plan)
	for i := range plan {
		req.Indices = append(req.Indices, i)
	}
	return req
}

// post sends a shard request to a test server and returns the response.
func post(t *testing.T, url string, req ShardRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestWorkerServesShard(t *testing.T) {
	srv := httptest.NewServer(&Worker{})
	defer srv.Close()
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5}, Days: 1}
	resp := post(t, srv.URL, shardRequest(t, g, ""))
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	sum, err := sweep.ReadSummary(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum.String() != local.String() {
		t.Fatal("worker summary differs from the local run")
	}
}

// A shard of a grid whose fleet size its scenario does not build is
// refused with a 4xx naming the scenario, not served as cells that each
// carry the failure. The request is the one a coordinator whose planner
// accepted the grid would send: its one cell, fingerprinted.
func TestWorkerRefusesAFleetSizeTheScenarioDoesNotBuild(t *testing.T) {
	srv := httptest.NewServer(&Worker{})
	defer srv.Close()
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5}, Stations: []int{5}, Days: 1}
	plan := []sweep.Cell{{Scenario: "as-deployed-2008", Seed: 5, Stations: 5, Days: 1}}
	req := ShardRequest{V: WireVersion, Grid: SpecOf(g), Fingerprint: sweep.Fingerprint(g, plan), TotalCells: 1, Indices: []int{0}}
	resp := post(t, srv.URL, req)
	defer func() { _ = resp.Body.Close() }()
	body := new(bytes.Buffer)
	_, _ = body.ReadFrom(resp.Body)
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("status %s, want a 4xx refusal (%s)", resp.Status, strings.TrimSpace(body.String()))
	}
	if want := `scenario "as-deployed-2008" builds 2 stations, not 5`; !strings.Contains(body.String(), want) {
		t.Fatalf("refusal %q does not say %q", strings.TrimSpace(body.String()), want)
	}
}

// slotProbe is a ResponseWriter that records the worker's in-flight shard
// count each time the reply body is written.
type slotProbe struct {
	*httptest.ResponseRecorder
	w      *Worker
	active []int
}

func (p *slotProbe) Write(b []byte) (int, error) {
	p.w.mu.Lock()
	p.active = append(p.active, p.w.active)
	p.w.mu.Unlock()
	return p.ResponseRecorder.Write(b)
}

// A coordinator may send its next shard as soon as it has read a reply, so
// the worker frees the shard's slot before the reply goes out; otherwise a
// worker at MaxShards 1 answers that next shard 503.
func TestWorkerFreesSlotBeforeReplying(t *testing.T) {
	w := &Worker{MaxShards: 1}
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5}, Days: 1}
	body, err := json.Marshal(shardRequest(t, g, ""))
	if err != nil {
		t.Fatal(err)
	}
	probe := &slotProbe{ResponseRecorder: httptest.NewRecorder(), w: w}
	w.ServeHTTP(probe, httptest.NewRequest(http.MethodPost, "/shard", bytes.NewReader(body)))
	if probe.Code != http.StatusOK {
		t.Fatalf("status %d: %s", probe.Code, probe.Body)
	}
	if len(probe.active) == 0 {
		t.Fatal("worker wrote no reply")
	}
	for _, n := range probe.active {
		if n != 0 {
			t.Fatalf("reply written with %d shard(s) still counted in flight", n)
		}
	}
}

func TestWorkerHealthz(t *testing.T) {
	srv := httptest.NewServer(&Worker{MaxShards: 5})
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.MaxShards != 5 || h.Active != 0 {
		t.Fatalf("health = %+v", h)
	}
}

func TestWorkerRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(&Worker{})
	defer srv.Close()
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5}, Days: 1}

	check := func(name string, wantStatus int, wantBody string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer func() { _ = resp.Body.Close() }()
		body := new(bytes.Buffer)
		_, _ = body.ReadFrom(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %s, want %d (%s)", name, resp.Status, wantStatus, strings.TrimSpace(body.String()))
		}
		if wantBody != "" && !strings.Contains(body.String(), wantBody) {
			t.Errorf("%s: body %q does not mention %q", name, strings.TrimSpace(body.String()), wantBody)
		}
	}

	resp, err := http.Get(srv.URL + "/shard")
	check("GET /shard", http.StatusMethodNotAllowed, "POST only", resp, err)

	resp, err = http.Post(srv.URL+"/healthz", "application/json", strings.NewReader("{}"))
	check("POST /healthz", http.StatusMethodNotAllowed, "GET only", resp, err)

	resp, err = http.Get(srv.URL + "/no-such-route")
	check("unknown route", http.StatusNotFound, "", resp, err)

	resp, err = http.Post(srv.URL+"/shard", "application/json", strings.NewReader("{not json"))
	check("malformed body", http.StatusBadRequest, "bad shard request", resp, err)

	old := shardRequest(t, g, "")
	old.V = 99
	check("wrong version", http.StatusBadRequest, "version 99", post(t, srv.URL, old), nil)

	// A version 1 coordinator still sends hook_args, and a coordinator of
	// the grid's former weather axis sends weathers: both are fields this
	// worker cannot represent, so the decoder refuses them rather than
	// run a narrower grid than was asked for.
	withField := func(mutate func(req map[string]any)) []byte {
		t.Helper()
		var req map[string]any
		body, err := json.Marshal(shardRequest(t, g, ""))
		if err == nil {
			err = json.Unmarshal(body, &req)
		}
		if err != nil {
			t.Fatal(err)
		}
		mutate(req)
		if body, err = json.Marshal(req); err != nil {
			t.Fatal(err)
		}
		return body
	}
	v1 := withField(func(req map[string]any) { req["v"], req["hook_args"] = 1, "start=2009-07-15" })
	resp, err = http.Post(srv.URL+"/shard", "application/json", bytes.NewReader(v1))
	check("version 1 request", http.StatusBadRequest, `unknown field "hook_args"`, resp, err)
	wx := withField(func(req map[string]any) {
		req["grid"].(map[string]any)["weathers"] = []any{map[string]any{"name": "dark-calm"}}
	})
	resp, err = http.Post(srv.URL+"/shard", "application/json", bytes.NewReader(wx))
	check("unknown grid field", http.StatusBadRequest, `unknown field "weathers"`, resp, err)

	unknown := shardRequest(t, g, "no-such-hooks")
	check("unknown hook set", http.StatusBadRequest, "not registered", post(t, srv.URL, unknown), nil)

	drifted := shardRequest(t, g, "")
	drifted.Fingerprint = "feedfacefeedface"
	check("fingerprint drift", http.StatusConflict, "plan mismatch", post(t, srv.URL, drifted), nil)

	outOfRange := shardRequest(t, g, "")
	outOfRange.Indices = []int{0, 999}
	check("index out of range", http.StatusBadRequest, "outside", post(t, srv.URL, outOfRange), nil)

	empty := shardRequest(t, sweep.Grid{}, "")
	check("invalid grid", http.StatusBadRequest, "no scenarios", post(t, srv.URL, empty), nil)

	// About 15 KB of distinct axis values multiply into 10⁹ cells; the
	// worker must refuse the plan before it enumerates one.
	huge := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: sweep.SeedRange(1, 1000),
		Stations: make([]int, 1000), Probes: make([]int, 1000), Days: 1}
	for i := range huge.Stations {
		huge.Stations[i], huge.Probes[i] = i+1, i+1
	}
	check("oversized plan", http.StatusBadRequest, "more than", post(t, srv.URL, shardRequest(t, huge, "")), nil)
}

// The concurrency bound: with MaxShards 1 and a shard held in flight by
// the blocking hook set, the next request gets 503 + Retry-After instead
// of piling up.
func TestWorkerBoundsConcurrentShards(t *testing.T) {
	resetBlockChan()
	srv := httptest.NewServer(&Worker{MaxShards: 1})
	defer srv.Close()
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5}, Days: 1}
	req := shardRequest(t, g, "disttest/block")

	firstDone := make(chan *http.Response)
	go func() { firstDone <- post(t, srv.URL, req) }()

	// Wait until the worker reports the first shard in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h Health
		err = json.NewDecoder(resp.Body).Decode(&h)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Active == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first shard never went in flight")
		}
		time.Sleep(10 * time.Millisecond)
	}

	second := post(t, srv.URL, req)
	if second.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second shard got %s, want 503", second.Status)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	_ = second.Body.Close()

	close(blockChan())
	first := <-firstDone
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first shard got %s after release", first.Status)
	}
	_ = first.Body.Close()
}

// Serving a shard fills the worker's one-entry plan cache, and /healthz
// reports which plan it holds — the coordinator-visible state a
// retirement message quotes.
func TestWorkerHealthzReportsPlanFingerprint(t *testing.T) {
	srv := httptest.NewServer(&Worker{})
	defer srv.Close()
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5}, Days: 1}
	req := shardRequest(t, g, "")
	resp := post(t, srv.URL, req)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hresp.Body.Close() }()
	var h Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.PlanFP != req.Fingerprint {
		t.Fatalf("healthz plan fingerprint %q, want %q", h.PlanFP, req.Fingerprint)
	}
}

// Two worker daemons pointed at one cache directory warm it together: the
// second worker serves cells the first one simulated, byte-identically,
// without running them again.
func TestWorkerPoolSharesOneCache(t *testing.T) {
	dir := t.TempDir()
	open := func() *rescache.DiskCache {
		c, err := rescache.Open(dir, rescache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	first := httptest.NewServer(&Worker{Cache: open()})
	defer first.Close()
	secondCache := open()
	second := httptest.NewServer(&Worker{Cache: secondCache})
	defer second.Close()

	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5, 6}, Days: 1}
	req := shardRequest(t, g, "")
	read := func(srv string) []byte {
		resp := post(t, srv, req)
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s", resp.Status)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cold := read(first.URL)
	warm := read(second.URL)
	if !bytes.Equal(cold, warm) {
		t.Fatal("second worker's cached reply differs from the first worker's simulated one")
	}
	if st := secondCache.Stats(); st.Hits != 2 || st.Misses != 0 || st.Stores != 0 {
		t.Fatalf("second worker's cache stats = %+v, want 2 hits and nothing simulated", st)
	}
}
