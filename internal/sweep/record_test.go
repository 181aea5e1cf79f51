package sweep

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/deploy"
	"repro/internal/evlog"
)

// cellRecorder is a Grid.Record hook that captures every cell's event
// log in memory, keyed by global cell index. The mutex guards only the
// map — each cell's writer is touched solely by the worker running that
// cell, per the Record concurrency contract.
type cellRecorder struct {
	mu   sync.Mutex
	logs map[int]*bytes.Buffer
}

func (cr *cellRecorder) record(c Cell, d *deploy.Deployment) (func() error, error) {
	buf := &bytes.Buffer{}
	w, err := evlog.NewWriter(buf, evlog.Header{
		Scenario: c.Scenario, Seed: c.Seed,
		Stations: c.Stations, Probes: c.Probes, Days: c.Days,
	})
	if err != nil {
		return nil, err
	}
	w.Attach(d.Sim)
	cr.mu.Lock()
	cr.logs[c.Index] = buf
	cr.mu.Unlock()
	return w.Close, nil
}

// The event-level sharpening of TestRunWorkerCountIndependence: not just
// byte-identical summaries, but byte-identical per-cell event logs for
// any worker count — the recorded stream is a pure function of the cell.
func TestRecordedLogsWorkerCountIndependent(t *testing.T) {
	g := Grid{
		Scenarios: []string{"dual-base"},
		Seeds:     SeedRange(1, 4),
		Days:      2,
	}
	runWith := func(workers int) map[int]*bytes.Buffer {
		rec := &cellRecorder{logs: make(map[int]*bytes.Buffer)}
		g.Record = rec.record
		sum, err := Run(g, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, cr := range sum.Cells {
			if cr.Err != "" {
				t.Fatalf("workers=%d: cell %s failed: %s", workers, cr.Cell.Label(), cr.Err)
			}
		}
		return rec.logs
	}
	serial := runWith(1)
	parallel := runWith(4)
	if len(serial) != 4 || len(parallel) != 4 {
		t.Fatalf("recorded %d and %d cell logs, want 4 each", len(serial), len(parallel))
	}
	for idx, a := range serial {
		b := parallel[idx]
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("cell %d: workers=1 and workers=4 logs differ (%d vs %d bytes)",
				idx, a.Len(), b.Len())
		}
	}
	// A recorded cell is a plain scenario run, so its log replays clean
	// from nothing but its own header.
	l, err := evlog.Read(bytes.NewReader(serial[0].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	div, err := evlog.Verify(l)
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("replay of a recorded sweep cell diverged: %v", div)
	}
}

func TestRecordFailuresFailTheCell(t *testing.T) {
	g := Grid{Scenarios: []string{"dual-base"}, Seeds: []int64{1}, Days: 1}
	// A setup error fails the cell before it runs.
	g.Record = func(Cell, *deploy.Deployment) (func() error, error) {
		return nil, errors.New("recorder setup exploded")
	}
	sum, err := Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Cells[0].Err; !strings.Contains(got, "setup exploded") {
		t.Fatalf("cell error = %q, want the Record setup error", got)
	}
	// A finish error fails the cell even though the run itself succeeded.
	g.Record = func(Cell, *deploy.Deployment) (func() error, error) {
		return func() error { return errors.New("seal failed") }, nil
	}
	sum, err = Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Cells[0].Err; !strings.Contains(got, "seal failed") {
		t.Fatalf("cell error = %q, want the finish error", got)
	}
	if runs, _ := sum.Cells[0].Metric("runs"); runs == 0 {
		t.Fatal("finish error should fail the cell after the run, not before it")
	}
}
