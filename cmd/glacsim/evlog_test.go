package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/evlog"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// recordRun produces a recorded event log the way run -record does: a real
// scenario run with a writer attached, sealed to a file.
func recordRun(t *testing.T, path string, scen string, seed int64, days int) {
	t.Helper()
	d, err := scenario.Build(scen, scenario.Params{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := evlog.NewWriter(f, evlog.Header{Scenario: scen, Seed: seed, Days: days})
	if err != nil {
		t.Fatal(err)
	}
	w.Attach(d.Sim)
	if err := d.RunDays(days); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// The replay acceptance criteria: a faithful log
// verifies clean, and a single corrupted byte fails naming the exact
// record index.
func TestRunReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.evlog")
	recordRun(t, path, "dual-base", 42, 1)
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

// evdiff: identical logs succeed; logs from different seeds fail naming
// the first divergent event index.
func TestRunEvdiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.evlog")
	b := filepath.Join(dir, "b.evlog")
	recordRun(t, a, "dual-base", 42, 1)
	recordRun(t, b, "dual-base", 43, 1)
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
		if l.Header.Fingerprint != fp {
			t.Errorf("cell %d: header fingerprint %q, want the plan's %q", i, l.Header.Fingerprint, fp)
		}
		if l.Header.Seed != int64(i+1) {
			t.Errorf("cell %d: header seed %d, want %d", i, l.Header.Seed, i+1)
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
