package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/evlog"
	"repro/internal/sweep"
)

// recordRun records a scenario run's event log to path through
// run -record; args are the run's other flags.
func recordRun(t *testing.T, path string, args ...string) {
	t.Helper()
	if err := run(append([]string{"run", "-record", path}, args...)); err != nil {
		t.Fatal(err)
	}
}

// readHeader decodes the JSON header of the log at path, the third field
// of its first line ("glacsweb-evlog VERSION {...}").
func readHeader(t *testing.T, path string) evlog.Header {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := strings.SplitN(string(line), " ", 3)
	var h evlog.Header
	if len(fields) != 3 || fields[0] != evlog.Magic {
		t.Fatalf("%s: first line %q is not an event-log header", path, line)
	}
	if err := json.Unmarshal([]byte(fields[2]), &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// The replay acceptance criteria: a faithful log
// verifies clean, and a single corrupted byte fails naming the exact
// record index.
func TestRunReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.evlog")
	recordRun(t, path, "-scenario", "dual-base", "-seed", "42", "-days", "1")
	if err := run([]string{"replay", path}); err != nil {
		t.Fatalf("replay of a faithful recording failed: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte deep in the record stream.
	data[len(data)/2] ^= 0x01
	bad := filepath.Join(dir, "bad.evlog")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"replay", bad})
	if err == nil {
		t.Fatal("replay of a corrupted log succeeded")
	}
	if !strings.Contains(err.Error(), "record ") {
		t.Fatalf("corruption error %q does not name the record index", err)
	}
}

// run -start/-special-first is rebuilt on replay from the log's header
// alone. flagsApply and evlog.Rebuild each say what the two flags do to a
// topology; if they disagree, such a log diverges on replay.
func TestRunRecordReplayWithFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flags.evlog")
	recordRun(t, path, "-scenario", "dual-base", "-days", "2", "-start", "2009-07-15", "-special-first")
	if h := readHeader(t, path); h.Start != "2009-07-15" || !h.SpecialFirst {
		t.Fatalf("header start %q, special-first %v; want the run's flags", h.Start, h.SpecialFirst)
	}
	if err := run([]string{"replay", path}); err != nil {
		t.Fatalf("replay of a flagged recording failed: %v", err)
	}
}

// evdiff: identical logs succeed; logs from different seeds fail naming
// the first divergent event index.
func TestRunEvdiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.evlog")
	b := filepath.Join(dir, "b.evlog")
	recordRun(t, a, "-scenario", "dual-base", "-seed", "42", "-days", "1")
	recordRun(t, b, "-scenario", "dual-base", "-seed", "43", "-days", "1")
	if err := run([]string{"evdiff", a, a}); err != nil {
		t.Fatalf("evdiff of a log against itself failed: %v", err)
	}
	err := run([]string{"evdiff", a, b})
	if err == nil {
		t.Fatal("evdiff of different-seed runs succeeded")
	}
	if !strings.Contains(err.Error(), "diverge at event ") {
		t.Fatalf("evdiff error %q does not name the divergent event", err)
	}
}

// sweep -record-dir records every cell into its own replayable log,
// named by global plan index.
func TestRecordCellHook(t *testing.T) {
	t.Setenv(cliutil.CacheEnv, "")
	dir := t.TempDir()
	if err := run([]string{"sweep", "-scenario", "dual-base", "-seed", "1", "-seeds", "2", "-days", "1",
		"-workers", "2", "-record-dir", dir}); err != nil {
		t.Fatal(err)
	}
	g := sweep.Grid{Scenarios: []string{"dual-base"}, Seeds: []int64{1, 2}, Days: 1}
	plan, err := sweep.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	fp := sweep.Fingerprint(g, plan)
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, "cell-000"+string(rune('0'+i))+".evlog")
		l, err := evlog.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if h := readHeader(t, path); h.Fingerprint != fp || h.Seed != int64(i+1) {
			t.Errorf("cell %d: header fingerprint %q seed %d, want the plan's %q and seed %d",
				i, h.Fingerprint, h.Seed, fp, i+1)
		}
		div, err := evlog.Verify(l)
		if err != nil {
			t.Fatal(err)
		}
		if div != nil {
			t.Errorf("cell %d: recorded log does not replay: %v", i, div)
		}
	}
}
