package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/rescache"
)

func openTestCache(t *testing.T, dir string) *rescache.DiskCache {
	t.Helper()
	c, err := rescache.Open(dir, rescache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// assertDirsIdenticalExceptManifest is assertDirsIdentical minus
// manifest.json, which legitimately differs between cached and uncached
// campaigns (the cache counters live there).
func assertDirsIdenticalExceptManifest(t *testing.T, ref, got string) {
	t.Helper()
	read := func(dir string) map[string][]byte {
		files := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || e.Name() == "manifest.json" {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		return files
	}
	refFiles, gotFiles := read(ref), read(got)
	if len(refFiles) == 0 {
		t.Fatal("reference campaign wrote no artifacts")
	}
	for name, want := range refFiles {
		data, ok := gotFiles[name]
		if !ok {
			t.Errorf("artifact %s missing", name)
			continue
		}
		if !bytes.Equal(data, want) {
			t.Errorf("artifact %s differs from the reference campaign", name)
		}
	}
	for name := range gotFiles {
		if _, ok := refFiles[name]; !ok {
			t.Errorf("unexpected artifact %s", name)
		}
	}
}

// The headline acceptance criterion: a campaign re-run against the cache
// it populated simulates zero cells (every Get hits, nothing stores) and
// writes artifacts byte-identical to both the cold run and an entirely
// uncached run, with the counters recorded in manifest.json.
func TestCampaignWarmCacheIsByteIdenticalAndSimulatesNothing(t *testing.T) {
	uncached, cold, warm := t.TempDir(), t.TempDir(), t.TempDir()
	cacheDir := t.TempDir()

	if err := runCampaign(uncached, 42, 2, 3, 0, 1, false, false, &cliutil.Exec{}); err != nil {
		t.Fatal(err)
	}
	if err := runCampaign(cold, 42, 2, 3, 0, 1, false, false, &cliutil.Exec{Cache: openTestCache(t, cacheDir)}); err != nil {
		t.Fatal(err)
	}
	// The warm run records each simulated cell's event log, so the log
	// files count the cells it simulated.
	recordDir := t.TempDir()
	if err := runCampaign(warm, 42, 2, 3, 0, 1, false, false, &cliutil.Exec{Cache: openTestCache(t, cacheDir), RecordDir: recordDir}); err != nil {
		t.Fatal(err)
	}
	if logs, err := filepath.Glob(filepath.Join(recordDir, "*", "cell-*.evlog")); err != nil || len(logs) != 0 {
		t.Fatalf("warm campaign simulated %d cells (%v), want 0", len(logs), err)
	}
	assertDirsIdenticalExceptManifest(t, uncached, cold)
	assertDirsIdenticalExceptManifest(t, uncached, warm)

	coldMan, err := readManifest(filepath.Join(cold, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	warmMan, err := readManifest(filepath.Join(warm, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	uncachedMan, err := readManifest(filepath.Join(uncached, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if uncachedMan.Cache != nil {
		t.Fatal("uncached campaign manifest carries cache counters")
	}
	var totalCells int64
	for _, item := range coldMan.Experiments {
		totalCells += int64(item.Cells)
	}
	if coldMan.Cache == nil || warmMan.Cache == nil {
		t.Fatal("cached campaign manifests missing the cache record")
	}
	if coldMan.Cache.Hits != 0 || coldMan.Cache.Misses != totalCells || coldMan.Cache.Stores != totalCells {
		t.Fatalf("cold manifest cache = %+v, want every one of %d cells a miss-then-store", coldMan.Cache, totalCells)
	}
	if warmMan.Cache.Hits != totalCells || warmMan.Cache.Misses != 0 || warmMan.Cache.Stores != 0 {
		t.Fatalf("warm manifest cache = %+v, want all %d cells served from the cache", warmMan.Cache, totalCells)
	}

	// Aside from the cache record, the manifests are identical.
	coldMan.Cache, warmMan.Cache = nil, nil
	if !reflect.DeepEqual(coldMan, warmMan) || !reflect.DeepEqual(coldMan, uncachedMan) {
		t.Fatal("manifests differ beyond the cache record")
	}
}

// A poisoned cache never corrupts a campaign: flip bytes in every entry
// and the warm run re-simulates, still byte-identical.
func TestCampaignSurvivesPoisonedCache(t *testing.T) {
	ref, got := t.TempDir(), t.TempDir()
	cacheDir := t.TempDir()
	if err := runCampaign(ref, 42, 2, 3, 0, 1, false, false, &cliutil.Exec{Cache: openTestCache(t, cacheDir)}); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(cacheDir, "v*", "*", "*.cell"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("cold campaign stored no cache entries")
	}
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := runCampaign(got, 42, 2, 3, 0, 1, false, false, &cliutil.Exec{Cache: openTestCache(t, cacheDir)}); err != nil {
		t.Fatal(err)
	}
	assertDirsIdenticalExceptManifest(t, ref, got)
	man, err := readManifest(filepath.Join(got, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if man.Cache.Hits != 0 {
		t.Fatalf("poisoned entries were served: %+v", man.Cache)
	}
}

// The cache field in the manifest round-trips through JSON with flattened
// counter names — the shape the CI warm-cache assertions read with jq.
func TestCacheManifestEncoding(t *testing.T) {
	m := campaignManifest{
		Campaign:    "c",
		Experiments: []campaignManifestItem{},
		Cache:       &cacheManifest{Dir: "/c", Stats: rescache.Stats{Hits: 3, Misses: 1, Stores: 1}},
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"dir":"/c"`, `"hits":3`, `"misses":1`, `"stores":1`, `"evictions":0`} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("manifest JSON %s lacks %s", out, want)
		}
	}
}
