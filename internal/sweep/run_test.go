package sweep

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pairedCache is a ResultCache whose every Get waits until a second Get is
// in flight beside it, or until a shared deadline passes; passing the
// deadline is recorded, so a serial lookup loop shows up as timedOut. It
// hits on the indices in hits and serves a result marked "cached".
type pairedCache struct {
	hits     map[int]bool
	inFlight atomic.Int32
	pairOnce sync.Once
	paired   chan struct{}
	deadline <-chan struct{}
	timedOut atomic.Bool
}

func (c *pairedCache) Get(_ string, cell Cell) (CellResult, bool) {
	if c.inFlight.Add(1) >= 2 {
		c.pairOnce.Do(func() { close(c.paired) })
	}
	select {
	case <-c.paired:
	case <-c.deadline:
		c.timedOut.Store(true)
	}
	c.inFlight.Add(-1)
	if !c.hits[cell.Index] {
		return CellResult{}, false
	}
	return CellResult{Cell: cell, Metrics: []Metric{{Name: "cached", Value: 1}}}, true
}

func (c *pairedCache) Put(string, CellResult) {}

// batchRunner records the batches it is handed and returns each cell
// marked "ran".
type batchRunner struct{ batches [][]int }

func (r *batchRunner) RunPlanned(_ Grid, _ string, _ int, cells []Cell) ([]CellResult, error) {
	var idx []int
	out := make([]CellResult, len(cells))
	for k, c := range cells {
		idx = append(idx, c.Index)
		out[k] = CellResult{Cell: c, Metrics: []Metric{{Name: "ran", Value: 1}}}
	}
	r.batches = append(r.batches, idx)
	return out, nil
}

// RunCached's lookups run concurrently, yet the results, the misses the
// runner receives and the progress reports all stay in plan order.
func TestRunCachedLooksUpConcurrentlyInPlanOrder(t *testing.T) {
	// Two lookups can be in flight only with two Ps, whatever -cpu says.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	deadline, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cache := &pairedCache{
		hits:     map[int]bool{0: true, 1: true, 3: true, 6: true, 7: true},
		paired:   make(chan struct{}),
		deadline: deadline.Done(),
	}
	cells := make([]Cell, 10)
	for i := range cells {
		cells[i] = Cell{Index: i, Scenario: "s", Seed: int64(i), Days: 1}
	}
	r := &batchRunner{}
	var progress []string
	results, err := RunCached(Grid{}, r, cache, "fp", len(cells), cells, 2, func(done, misses int) {
		progress = append(progress, fmt.Sprintf("%d/%d", done, misses))
	})
	if err != nil {
		t.Fatal(err)
	}
	if cache.timedOut.Load() {
		t.Error("no two cache Gets were ever in flight together: the lookups ran one at a time")
	}
	for i, cr := range results {
		want := "ran"
		if cache.hits[i] {
			want = "cached"
		}
		if cr.Cell != cells[i] || len(cr.Metrics) != 1 || cr.Metrics[0].Name != want {
			t.Errorf("result %d = %+v, want cell %d %s", i, cr, i, want)
		}
	}
	if want := [][]int{{2, 4}, {5, 8}, {9}}; !reflect.DeepEqual(r.batches, want) {
		t.Errorf("runner got batches %v, want the misses in plan order, chunked by 2: %v", r.batches, want)
	}
	if want := []string{"0/5", "2/5", "4/5", "5/5"}; !reflect.DeepEqual(progress, want) {
		t.Errorf("progress reports %v, want %v", progress, want)
	}
}
