package distrib

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/sweep"
)

// countingRunner wraps the local pool, counting executed cells and failing
// every call after the first failAfter calls — the shape of a campaign
// interrupted mid-flight.
type countingRunner struct {
	mu        sync.Mutex
	cellsRun  int
	calls     int
	failAfter int // 0 = never fail
}

func (c *countingRunner) RunPlanned(g sweep.Grid, fp string, total int, cells []sweep.Cell) ([]sweep.CellResult, error) {
	c.mu.Lock()
	c.calls++
	if c.failAfter > 0 && c.calls > c.failAfter {
		c.mu.Unlock()
		return nil, os.ErrDeadlineExceeded
	}
	c.cellsRun += len(cells)
	c.mu.Unlock()
	return sweep.LocalRunner{Workers: 2}.RunPlanned(g, fp, total, cells)
}

// checkpoints lists the cell entries of experiment "exp" under dir.
func checkpoints(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, PartsDirName, "exp", "v*", "*", "*.cell"))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// singleJSON is the single-process run's canonical JSON for g.
func singleJSON(t *testing.T, g sweep.Grid) []byte {
	t.Helper()
	single, err := sweep.Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := single.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunResumableCompletesAndCheckpoints(t *testing.T) {
	g := runnerGrid()
	dir := t.TempDir()
	r := &countingRunner{}
	sum, err := RunResumable(g, "exp", dir, r, 2, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalCells != len(sum.Cells) {
		t.Fatal("summary incomplete")
	}
	single, err := sweep.Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.String() != single.String() {
		t.Fatal("resumable run differs from the single-process run")
	}
	if got := checkpoints(t, dir); len(got) != 4 { // one entry per cell
		t.Fatalf("found %d checkpoint entries, want 4: %v", len(got), got)
	}
	if err := RemoveParts(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, PartsDirName)); !os.IsNotExist(err) {
		t.Fatal("RemoveParts left the checkpoint directory")
	}
}

// The resume property of the acceptance criteria: an interrupted run
// leaves its finished chunks on disk; the resumed run executes only the
// missing cells and the final artifacts are byte-identical to an
// uninterrupted run.
func TestRunResumableResumesAfterInterruption(t *testing.T) {
	g := runnerGrid()
	dir := t.TempDir()
	first := &countingRunner{failAfter: 1}
	if _, err := RunResumable(g, "exp", dir, first, 2, false, nil); err == nil {
		t.Fatal("interrupted run reported success")
	}
	if first.cellsRun != 2 {
		t.Fatalf("interrupted run executed %d cells, want 2", first.cellsRun)
	}
	if got := checkpoints(t, dir); len(got) != 2 {
		t.Fatalf("interrupted run left %d checkpoint entries, want the first chunk's 2", len(got))
	}

	second := &countingRunner{}
	var log []string
	sum, err := RunResumable(g, "exp", dir, second, 2, true,
		func(format string, a ...any) { log = append(log, format) })
	if err != nil {
		t.Fatal(err)
	}
	if second.cellsRun != 2 {
		t.Fatalf("resumed run executed %d cells, want only the 2 missing", second.cellsRun)
	}
	single, err := sweep.Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var resumedJSON, singleJSON bytes.Buffer
	if err := sum.WriteJSON(&resumedJSON); err != nil {
		t.Fatal(err)
	}
	if err := single.WriteJSON(&singleJSON); err != nil {
		t.Fatal(err)
	}
	if sum.String() != single.String() || !bytes.Equal(resumedJSON.Bytes(), singleJSON.Bytes()) {
		t.Fatal("resumed summary differs from the uninterrupted run")
	}
	resumedLogged := false
	for _, line := range log {
		if strings.Contains(line, "resuming") {
			resumedLogged = true
		}
	}
	if !resumedLogged {
		t.Error("resume was silent about the checkpoints it picked up")
	}
}

// Without the resume flag, checkpoints on disk are ignored and every cell
// runs — a fresh campaign into a dirty directory must not silently trust
// stale files (it overwrites them instead).
func TestRunResumableIgnoresCheckpointsWithoutResume(t *testing.T) {
	g := runnerGrid()
	dir := t.TempDir()
	first := &countingRunner{failAfter: 1}
	if _, err := RunResumable(g, "exp", dir, first, 2, false, nil); err == nil {
		t.Fatal("interrupted run reported success")
	}
	second := &countingRunner{}
	if _, err := RunResumable(g, "exp", dir, second, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	if second.cellsRun != 4 {
		t.Fatalf("fresh run executed %d cells, want all 4", second.cellsRun)
	}
}

// Entries are keyed by plan fingerprint, so a resume against a different
// plan finds nothing to serve: every cell re-runs and the summary is that
// plan's own.
func TestRunResumableRerunsEveryCellForADifferentPlan(t *testing.T) {
	g := runnerGrid()
	dir := t.TempDir()
	if _, err := RunResumable(g, "exp", dir, &countingRunner{}, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	other := g
	other.Seeds = sweep.SeedRange(900, 2) // a different plan
	second := &countingRunner{}
	sum, err := RunResumable(other, "exp", dir, second, 2, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.cellsRun != 4 {
		t.Fatalf("resume against a different plan executed %d cells, want all 4", second.cellsRun)
	}
	var got bytes.Buffer
	if err := sum.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), singleJSON(t, other)) {
		t.Fatal("resume against a different plan differs from that plan's single-process run")
	}
}

// A damaged checkpoint entry is a cache miss: truncating one costs exactly
// one re-run cell, and the output stays byte-identical.
func TestRunResumableTruncatedEntryCostsOneCell(t *testing.T) {
	g := runnerGrid()
	dir := t.TempDir()
	if _, err := RunResumable(g, "exp", dir, &countingRunner{}, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	bad := checkpoints(t, dir)[0]
	data, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	second := &countingRunner{}
	sum, err := RunResumable(g, "exp", dir, second, 2, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.cellsRun != 1 {
		t.Fatalf("resumed run executed %d cells, want only the truncated entry's 1", second.cellsRun)
	}
	var got bytes.Buffer
	if err := sum.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), singleJSON(t, g)) {
		t.Fatal("campaign resumed past a truncated entry diverged from the uninterrupted run")
	}
}

// RunResumable over a RemoteRunner — the full networked campaign loop —
// still produces byte-identical artifacts.
func TestRunResumableOverRemoteRunner(t *testing.T) {
	g := runnerGrid()
	dir := t.TempDir()
	remote := &RemoteRunner{Workers: startWorkers(t, 2)}
	sum, err := RunResumable(g, "exp", dir, remote, 2, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	single, err := sweep.Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.String() != single.String() {
		t.Fatal("remote resumable run differs from the single-process run")
	}
}

// A fresh (non-resume) run clears the experiment's stale checkpoints and
// stores its own, so a later -resume serves every cell from them whatever
// the earlier runs' chunking.
func TestRunResumableFreshRunClearsStaleCheckpoints(t *testing.T) {
	g := runnerGrid()
	g.Seeds = sweep.SeedRange(11, 3) // 6 cells
	dir := t.TempDir()
	// Interrupted run, chunk 2: checkpoints cells {0,1} and {2,3}, dies
	// before {4,5}.
	if _, err := RunResumable(g, "exp", dir, &countingRunner{failAfter: 2}, 2, false, nil); err == nil {
		t.Fatal("interrupted run reported success")
	}
	// Fresh run, chunk 4, over the same store.
	if _, err := RunResumable(g, "exp", dir, &countingRunner{}, 4, false, nil); err != nil {
		t.Fatal(err)
	}
	resumed := &countingRunner{}
	sum, err := RunResumable(g, "exp", dir, resumed, 4, true, nil)
	if err != nil {
		t.Fatalf("resume after a fresh rerun: %v", err)
	}
	if sum.TotalCells != len(sum.Cells) {
		t.Fatal("resumed summary incomplete")
	}
	if resumed.cellsRun != 0 {
		t.Fatalf("resume after a complete run executed %d cells, want 0", resumed.cellsRun)
	}
}
