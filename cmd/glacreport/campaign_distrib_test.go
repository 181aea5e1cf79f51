package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/distrib"
)

// startWorker launches one in-process campaign-capable worker daemon (the
// campaign hook sets are registered by this package's internal/campaign
// import, exactly as they are in a glacsim -worker binary).
func startWorker(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(&distrib.Worker{MaxShards: 4})
	t.Cleanup(srv.Close)
	return srv.URL
}

// startDeadWorker accepts connections and slams them shut — a worker
// process that died with its port still reachable.
func startDeadWorker(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj := w.(http.Hijacker)
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		_ = conn.Close()
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// startDyingWorker serves shards normally until the shared request budget
// runs out, then drops every connection — the shape of a pool lost partway
// through a campaign.
func startDyingWorker(t *testing.T, budget *atomic.Int64) string {
	t.Helper()
	worker := &distrib.Worker{MaxShards: 4}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if budget.Add(-1) < 0 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			_ = conn.Close()
			return
		}
		worker.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// assertDirsIdentical compares two artifact directories file by file.
func assertDirsIdentical(t *testing.T, ref, got string) {
	t.Helper()
	list := func(dir string) map[string][]byte {
		files := map[string][]byte{}
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			rel, err := filepath.Rel(dir, path)
			if err != nil {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files[rel] = data
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	refFiles, gotFiles := list(ref), list(got)
	for name, want := range refFiles {
		data, ok := gotFiles[name]
		if !ok {
			t.Errorf("artifact %s missing", name)
			continue
		}
		if !bytes.Equal(data, want) {
			t.Errorf("artifact %s differs from the single-process campaign", name)
		}
	}
	for name := range gotFiles {
		if _, ok := refFiles[name]; !ok {
			t.Errorf("unexpected artifact %s", name)
		}
	}
}

// The acceptance criteria, end to end: a campaign through RemoteRunner
// across two live workers plus one dead one (the forced worker failure —
// every shard it receives must requeue) produces artifacts byte-identical
// to the single-process campaign.
func TestCampaignRemoteWithWorkerFailureByteIdentical(t *testing.T) {
	ref := t.TempDir()
	if err := runCampaign(ref, 42, 2, 3, 0, 1, false, false, &cliutil.Exec{}); err != nil {
		t.Fatal(err)
	}
	remoteDir := t.TempDir()
	pool := []string{startDeadWorker(t), startWorker(t), startWorker(t)}
	if err := runCampaign(remoteDir, 42, 2, 3, 0, 1, false, false, &cliutil.Exec{Remote: pool}); err != nil {
		t.Fatal(err)
	}
	assertDirsIdentical(t, ref, remoteDir)
	if _, err := os.Stat(filepath.Join(remoteDir, distrib.PartsDirName)); !os.IsNotExist(err) {
		t.Error("completed campaign left its checkpoint directory behind")
	}
}

// The resume half of the acceptance criteria: a remote campaign whose pool
// dies partway through errors out leaving checkpoints, and -resume against
// a healthy pool completes with artifacts byte-identical to the
// single-process campaign.
func TestCampaignRemoteResumeAfterInterruptionByteIdentical(t *testing.T) {
	ref := t.TempDir()
	if err := runCampaign(ref, 42, 2, 3, 0, 1, false, false, &cliutil.Exec{}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Enough budget for the first experiment's shards, not the rest: the
	// campaign dies mid-flight with at least one experiment checkpointed.
	var budget atomic.Int64
	budget.Store(5)
	dying := []string{startDyingWorker(t, &budget), startDyingWorker(t, &budget)}
	if err := runCampaign(dir, 42, 2, 3, 0, 1, false, false, &cliutil.Exec{Remote: dying}); err == nil {
		t.Fatal("campaign on a dying pool reported success")
	}
	parts, err := filepath.Glob(filepath.Join(dir, distrib.PartsDirName, "*", "v*", "*", "*.cell"))
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) == 0 {
		t.Fatal("interrupted campaign left no checkpoints")
	}
	if err := runCampaign(dir, 42, 2, 3, 0, 1, false, true, &cliutil.Exec{Remote: []string{startWorker(t), startWorker(t)}}); err != nil {
		t.Fatal(err)
	}
	assertDirsIdentical(t, ref, dir)
}
