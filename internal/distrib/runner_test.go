package distrib

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sweep"
)

// runnerGrid is the small declarative grid the runner tests distribute.
func runnerGrid() sweep.Grid {
	return sweep.Grid{
		Scenarios: []string{"as-deployed-2008", "dual-base"},
		Seeds:     sweep.SeedRange(11, 2),
		Days:      2,
	}
}

// startWorkers launches n healthy in-process worker daemons.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv := httptest.NewServer(&Worker{MaxShards: 4})
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// encodeAll renders a summary in all three encodings for byte comparison.
func encodeAll(t *testing.T, sum *sweep.Summary) (text string, csv, js []byte) {
	t.Helper()
	var csvBuf, jsonBuf bytes.Buffer
	if err := sum.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := sum.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	return sum.String(), csvBuf.Bytes(), jsonBuf.Bytes()
}

// The acceptance property: a grid executed through RemoteRunner across two
// workers produces String/CSV/JSON artifacts byte-identical to the
// single-process run.
func TestRemoteRunnerByteIdenticalToLocal(t *testing.T) {
	g := runnerGrid()
	remote := &RemoteRunner{Workers: startWorkers(t, 2)}
	distributed, err := sweep.RunShardWith(g, remote, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	single, err := sweep.Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	dText, dCSV, dJSON := encodeAll(t, distributed)
	sText, sCSV, sJSON := encodeAll(t, single)
	if dText != sText || !bytes.Equal(dCSV, sCSV) || !bytes.Equal(dJSON, sJSON) {
		t.Fatal("remote summary differs from the single-process run")
	}
}

// A RemoteRunner is a sweep.Runner, so shard runs distribute too: shard
// 0/2 through the pool merges with a local shard 1/2 into the full grid.
func TestRemoteRunnerShardMergesWithLocalShard(t *testing.T) {
	g := runnerGrid()
	remote := &RemoteRunner{Workers: startWorkers(t, 1)}
	part0, err := sweep.RunShardWith(g, remote, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	part1, err := sweep.RunShardWith(g, sweep.LocalRunner{}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := sweep.MergeSummaries(part0, part1)
	if err != nil {
		t.Fatal(err)
	}
	single, err := sweep.Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if merged.String() != single.String() {
		t.Fatal("mixed remote/local shards did not merge byte-identical")
	}
}

// dropWorker accepts the connection and slams it shut — the signature of a
// worker process dying mid-request.
func dropWorker(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Fatal("recorder not hijackable")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// wrongFingerprintWorker answers every shard with a well-formed partial
// summary from some other plan.
func wrongFingerprintWorker(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"fingerprint":"0123456789abcdef","total_cells":1,"cells":[],"groups":[]}`)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// stallWorker never answers within the client's timeout. The handler
// cannot rely on r.Context() to notice the abandoning client (the unread
// POST body defeats the server's background-read disconnect detection), so
// a stop channel — closed by cleanup before the server's own Close, which
// waits for handlers — keeps the test binary from hanging on the sleep.
func stallWorker(t *testing.T, d time.Duration) string {
	t.Helper()
	stop := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stop:
		case <-time.After(d):
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(stop) }) // LIFO: runs before srv.Close
	return srv.URL
}

// The requeue property: with a pool of one healthy worker and one faulty
// one (dropped connections, wrong fingerprints or timeouts), every shard
// still completes — requeued onto the healthy worker — and the summary is
// byte-identical to the single-process run. The hand-off rule keeps the
// faulty worker off a shard it just failed, so no shard fails twice.
func TestRemoteRunnerRequeuesFromFaultyWorkers(t *testing.T) {
	g := runnerGrid()
	single, err := sweep.Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, faulty := range map[string]string{
		"dropped":           dropWorkers0(t),
		"wrong-fingerprint": wrongFingerprintWorker(t),
		"timeout":           stallWorker(t, 5*time.Second),
	} {
		var mu sync.Mutex
		var log []string
		remote := &RemoteRunner{
			Workers: []string{faulty, startWorkers(t, 1)[0]},
			HTTP:    &http.Client{Timeout: 300 * time.Millisecond},
			Logf: func(format string, a ...any) {
				mu.Lock()
				log = append(log, fmt.Sprintf(format, a...))
				mu.Unlock()
			},
		}
		distributed, err := sweep.RunShardWith(g, remote, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if distributed.String() != single.String() {
			t.Fatalf("%s: summary survived the faulty pool but is not byte-identical", name)
		}
		requeues := 0
		mu.Lock()
		for _, line := range log {
			if strings.Contains(line, "requeued") {
				requeues++
			}
		}
		mu.Unlock()
		if requeues == 0 {
			t.Fatalf("%s: no shard was ever requeued — the faulty worker was never exercised", name)
		}
	}
}

// dropWorkers0 is dropWorker, renamed so the healthy worker in the mixed
// pool test reads clearly; the timeout in the test's HTTP client also
// covers the healthy worker, so shards must be small enough to finish
// within it. One cell of the two-day pair runs in well under 300ms.
func dropWorkers0(t *testing.T) string { return dropWorker(t) }

// Exhausted retries are a terminal, descriptive error: it names the shard
// (global indices and first cell), the attempt count, and each failure.
// A one-cell plan is one shard, so its third failure ends the run before
// either worker reaches its retirement strike.
func TestRemoteRunnerExhaustedRetries(t *testing.T) {
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{11}, Days: 2}
	remote := &RemoteRunner{Workers: []string{dropWorker(t), wrongFingerprintWorker(t)}}
	_, err := sweep.RunShardWith(g, remote, 0, 1)
	if err == nil {
		t.Fatal("run through an all-faulty pool succeeded")
	}
	msg := err.Error()
	for _, want := range []string{"cells [0]", "as-deployed-2008 seed=11", "3 of 3 attempts", "0123456789abcdef"} {
		if !strings.Contains(msg, want) {
			t.Errorf("terminal error %q does not name %q", msg, want)
		}
	}
}

// A pool whose every worker dies (connection refused) retires them all and
// reports the outstanding shards instead of hanging.
func TestRemoteRunnerAllWorkersDead(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close() // nothing listens here any more
	// Four one-cell shards: the worker fails three of them once each and
	// retires before any shard runs out of attempts.
	remote := &RemoteRunner{Workers: []string{addr}}
	_, err = sweep.RunShardWith(runnerGrid(), remote, 0, 1)
	if err == nil {
		t.Fatal("run with no live workers succeeded")
	}
	if !strings.Contains(err.Error(), "workers retired") || !strings.Contains(err.Error(), "outstanding") {
		t.Errorf("error %q does not describe the dead pool", err)
	}
}

func TestRemoteRunnerNeedsWorkers(t *testing.T) {
	if _, err := (&RemoteRunner{}).Run(runnerGrid(), nil); err == nil {
		t.Fatal("runner with no workers accepted")
	}
}

// Hook sets cross the wire by name: a grid whose Drive comes from a
// registered hook set runs remotely and matches the locally hooked run.
func TestRemoteRunnerCarriesHooks(t *testing.T) {
	g := runnerGrid()
	g.Overrides = []sweep.Override{{Name: "tag=7"}}
	hooked := g
	if err := testTagHooks("", &hooked); err != nil {
		t.Fatal(err)
	}
	single, err := sweep.Run(hooked, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote := &RemoteRunner{Workers: startWorkers(t, 2), Hooks: "disttest/tag"}
	// The coordinator sends the *declarative* grid; the worker reattaches
	// the hooks from its registry.
	distributed, err := sweep.RunShardWith(hooked, remote, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if distributed.String() != single.String() {
		t.Fatal("hooked remote run differs from the hooked local run")
	}
	st, ok := distributed.Groups[0].Stat("hook-tag")
	if !ok || st.Mean != 7 {
		t.Fatalf("hook metric missing or wrong: %+v", distributed.Groups[0].Stats)
	}
}

// busyThenHealthyWorker answers its first n shard requests with the
// capacity 503 before serving normally.
func busyThenHealthyWorker(t *testing.T, n int64) string {
	t.Helper()
	worker := &Worker{MaxShards: 4}
	var left atomic.Int64
	left.Store(n)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard" && left.Add(-1) >= 0 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "worker at capacity (4 shards in flight)", http.StatusServiceUnavailable)
			return
		}
		worker.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// A 503 is backpressure, not failure: a one-cell run against a worker
// that reports busy as often as a shard has attempts and a worker has
// strikes must still complete — burning an attempt or striking the worker
// on each 503 would end it.
func TestRemoteRunnerBusyWorkerBurnsNoAttempts(t *testing.T) {
	oldDelay := busyDelay
	busyDelay = time.Millisecond
	defer func() { busyDelay = oldDelay }()
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{11}, Days: 2}
	remote := &RemoteRunner{Workers: []string{busyThenHealthyWorker(t, max(shardAttempts, workerFails))}}
	distributed, err := sweep.RunShardWith(g, remote, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	single, err := sweep.Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if distributed.String() != single.String() {
		t.Fatal("summary differs after busy requeues")
	}
}

// A pool that is permanently at capacity must end in a bounded,
// descriptive error — not a spin.
func TestRemoteRunnerPermanentlyBusyPoolErrors(t *testing.T) {
	oldDelay, oldRetire := busyDelay, busyRetire
	busyDelay, busyRetire = time.Millisecond, 5
	defer func() { busyDelay, busyRetire = oldDelay, oldRetire }()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "worker at capacity", http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	remote := &RemoteRunner{Workers: []string{srv.URL}}
	_, err := sweep.RunShardWith(runnerGrid(), remote, 0, 1)
	if err == nil {
		t.Fatal("permanently busy pool reported success")
	}
	if !strings.Contains(err.Error(), "outstanding") || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("error %q does not describe the busy pool and outstanding shards", err)
	}
}

// The hand-off rule: with exactly as many shards as workers and one dead
// worker, the dead worker must not re-grab the shard it just failed and
// exhaust its attempt cap alone — the healthy worker finishes it. Three
// consecutive dead-worker failures of one shard would be terminal, so
// success here proves the hand-off. The retry backoff is all but removed,
// so only the hand-off rule keeps the dead worker off its own shard while
// the healthy one is still busy with the other.
func TestRemoteRunnerHandsFailedShardToOtherWorkers(t *testing.T) {
	oldHandoff, oldRetry := handoffDelay, retryDelay
	handoffDelay, retryDelay = time.Millisecond, time.Microsecond
	defer func() { handoffDelay, retryDelay = oldHandoff, oldRetry }()
	g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: sweep.SeedRange(11, 2), Days: 2}
	for i := 0; i < 3; i++ { // the race is scheduling-dependent; repeat
		// Two one-cell shards: one per worker.
		remote := &RemoteRunner{Workers: []string{dropWorker(t), startWorkers(t, 1)[0]}}
		distributed, err := sweep.RunShardWith(g, remote, 0, 1)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		single, err := sweep.Run(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if distributed.String() != single.String() {
			t.Fatalf("round %d: summary differs", i)
		}
	}
}

// Worker addresses in every documented form — host:port, full URL, with
// or without trailing slashes — reach /shard, not //shard.
func TestRemoteRunnerNormalisesWorkerAddresses(t *testing.T) {
	healthy := startWorkers(t, 1)[0] // a full http://host:port URL
	hostPort := strings.TrimPrefix(healthy, "http://")
	for _, addr := range []string{healthy, healthy + "/", hostPort, hostPort + "/"} {
		remote := &RemoteRunner{Workers: []string{addr}}
		g := sweep.Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5}, Days: 1}
		if _, err := sweep.RunShardWith(g, remote, 0, 1); err != nil {
			t.Errorf("worker address %q: %v", addr, err)
		}
	}
}

// A retirement message carries the worker's own /healthz account next to
// the coordinator's reason for dropping it.
func TestRemoteRunnerRetirementQuotesHealthz(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/healthz") {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status":"ok","active_shards":0,"max_shards":7,"plan_fingerprint":"feedfacefeedface"}`)
			return
		}
		http.Error(w, "shard handler exploded", http.StatusInternalServerError)
	}))
	defer srv.Close()
	// Four one-cell shards: the worker fails three of them once each and
	// retires before any shard runs out of attempts.
	remote := &RemoteRunner{Workers: []string{srv.URL}}
	_, err := sweep.RunShardWith(runnerGrid(), remote, 0, 1)
	if err == nil {
		t.Fatal("run through a failing pool succeeded")
	}
	msg := err.Error()
	for _, want := range []string{"retired after 3 consecutive failures", "healthz", "feedfacefeedface", `"max_shards":7`,
		"last failures:", "shard handler exploded"} {
		if !strings.Contains(msg, want) {
			t.Errorf("terminal error %q does not carry %q", msg, want)
		}
	}
}
