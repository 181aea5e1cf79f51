package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/deploy"
	"repro/internal/distrib"
)

// runCapturing runs one glacsim command line and returns what it logged on
// stderr (the cache counters live there).
func runCapturing(t *testing.T, line string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	saved := os.Stderr
	os.Stderr = f
	err = run(strings.Fields(line))
	os.Stderr = saved
	if err != nil {
		t.Fatalf("glacsim %s: %v", line, err)
	}
	logged, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(logged)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The season is part of the plan: a July sweep against a cache a January
// sweep filled misses every cell and matches an uncached July run, instead
// of being served January's results.
func TestSweepStartDatesDoNotShareCacheEntries(t *testing.T) {
	t.Setenv(cliutil.CacheEnv, "")
	dir := t.TempDir()
	sweep := "sweep -scenario dual-base -seeds 1 -days 3 -out json -o " + dir
	cache := " -cache " + filepath.Join(dir, "cache")
	runCapturing(t, sweep+"/jan.json -start 2009-01-15"+cache)
	logged := runCapturing(t, sweep+"/jul.json -start 2009-07-15"+cache)
	if !strings.Contains(logged, " 0 hits, 1 misses") {
		t.Fatalf("July sweep on the January cache logged %q, want 0 hits and 1 miss", logged)
	}
	runCapturing(t, sweep+"/fresh.json -start 2009-07-15 -no-cache")
	if !bytes.Equal(readFile(t, dir+"/jul.json"), readFile(t, dir+"/fresh.json")) {
		t.Fatal("July sweep through the shared cache differs from an uncached July sweep")
	}
	if bytes.Equal(readFile(t, dir+"/jan.json"), readFile(t, dir+"/jul.json")) {
		t.Fatal("January and July sweeps wrote identical summaries")
	}
}

// Shards of different seasons are shards of different grids: merge
// refuses to fold them.
func TestMergeRefusesShardsOfDifferentStartDates(t *testing.T) {
	t.Setenv(cliutil.CacheEnv, "")
	dir := t.TempDir()
	sweep := "sweep -scenario dual-base -seeds 2 -days 2 -out json -o " + dir
	runCapturing(t, sweep+"/s0.json -shard 0/2 -start 2009-01-15")
	runCapturing(t, sweep+"/s1.json -shard 1/2 -start 2009-07-15")
	err := run([]string{"merge", "-out", "json", "-o", dir + "/m.json", dir + "/s0.json", dir + "/s1.json"})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("merge of shards with different -start returned %v, want a fingerprint mismatch", err)
	}
}

// -start and -special-first reach remote workers through the override
// name alone: a -remote sweep on a loopback worker is byte-identical to
// the local sweep, which the flags visibly change.
func TestRemoteSweepCarriesFlags(t *testing.T) {
	t.Setenv(cliutil.CacheEnv, "")
	srv := httptest.NewServer(&distrib.Worker{MaxShards: 2})
	defer srv.Close()
	dir := t.TempDir()
	sweep := "sweep -scenario dual-base -seeds 2 -days 2 -out json -o " + dir
	flags := " -start 2009-07-15 -special-first"
	runCapturing(t, sweep+"/plain.json")
	runCapturing(t, sweep+"/local.json"+flags)
	runCapturing(t, sweep+"/remote.json"+flags+" -remote "+srv.URL)
	local := readFile(t, dir+"/local.json")
	if !bytes.Equal(local, readFile(t, dir+"/remote.json")) {
		t.Fatal("remote sweep with -start/-special-first differs from the local sweep")
	}
	if bytes.Equal(local, readFile(t, dir+"/plain.json")) {
		t.Fatal("-start/-special-first left the sweep unchanged")
	}
}

// The override name is canonical and is the only input to its Apply: a
// name round-trips, and any name flagsName would not build is refused.
func TestFlagsOverrideName(t *testing.T) {
	ov, err := flagOverride("2009-07-15", true)
	if err != nil {
		t.Fatal(err)
	}
	if ov.Name != "start=2009-07-15+special-first" {
		t.Fatalf("override name %q", ov.Name)
	}
	top := deploy.Topology{Stations: []deploy.StationSpec{{}, {}}}
	ov.Apply(&top)
	if got := top.Start.Format("2006-01-02"); got != "2009-07-15" {
		t.Errorf("Apply set start %s", got)
	}
	for i, st := range top.Stations {
		if !st.Runtime.SpecialFirst {
			t.Errorf("Apply left station %d without special-first", i)
		}
	}
	if ov, err := flagOverride("", false); err != nil || ov.Name != "" || ov.Apply != nil {
		t.Errorf("no flags gave override %+v, %v; want the zero override", ov, err)
	}
	if _, err := flagOverride("15/07/2009", false); err == nil {
		t.Error("malformed -start accepted")
	}
	for _, name := range []string{
		"start=2009-07-15", "special-first", "start=2009-07-15+special-first",
	} {
		if _, err := flagsApply(name); err != nil {
			t.Errorf("flagsApply(%q): %v", name, err)
		}
	}
	for _, name := range []string{
		"", "flags", "special-first+start=2009-07-15", "start=2009-7-15",
		"start=2009-07-15+start=2009-01-15", "special-first+special-first",
		"start=2009-07-15+special-first+x",
	} {
		if _, err := flagsApply(name); err == nil {
			t.Errorf("flagsApply(%q) accepted a name flagsName never builds", name)
		}
	}
}
