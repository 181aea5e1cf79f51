package sweep

import (
	"io"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/trace"
)

// voltageSummary is a summary shaped like the f5-voltage campaign grid's,
// the bulk of a campaign's artifacts: 64 cells, each with ten metrics and
// one battery-voltage series of points half-hourly samples (that grid's
// cells carry about 190), folded by Reduce.
func voltageSummary(points int) *Summary {
	t0 := time.Date(2008, time.September, 1, 0, 0, 0, 0, time.UTC)
	names := []string{"runs", "completed-runs", "watchdog-trips", "comms-failures", "specials",
		"recoveries", "probes-alive", "probe-readings", "mb-to-server", "uploads"}
	cells := make([]CellResult, 64)
	for i := range cells {
		ser := trace.NewSeries("base-volts", "V")
		ser.Reserve(points)
		for k := range points {
			ser.Add(t0.Add(time.Duration(k)*30*time.Minute), 12+float64((i+1)*k%997)/331)
		}
		cr := CellResult{
			Cell:   Cell{Index: i, Scenario: "as-deployed-2008", Seed: int64(i + 1), Days: 4},
			Series: []*trace.Series{ser},
		}
		for j, name := range names {
			cr.Metrics = append(cr.Metrics, Metric{Name: name, Value: float64(i*j) / 3})
		}
		cells[i] = cr
	}
	sum := Reduce(cells)
	sum.Fingerprint, sum.TotalCells = "0123456789abcdef", len(cells)
	return sum
}

// BenchmarkWriteJSON encodes an f5-voltage-shaped summary.
func BenchmarkWriteJSON(b *testing.B) {
	sum := voltageSummary(190)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sum.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// WriteJSON sizes each cell's buffer for its points up front, so its
// allocations do not grow with them: the same cells with 10 and with
// 1,000 points per series cost the same number.
func TestWriteJSONAllocsIndependentOfPoints(t *testing.T) {
	allocs := func(points int) float64 {
		sum := voltageSummary(points)
		return testing.AllocsPerRun(10, func() {
			if err := sum.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(1000); few != many {
		t.Fatalf("WriteJSON allocates %.0f objects at 10 points per series and %.0f at 1,000, want equal", few, many)
	}
}

// The byte budgets are maxima: every item whose ints and floats take the
// most bytes they can still fits its own budget, so no item borrows room
// another left over.
func TestJSONBudgetsBoundWorstCase(t *testing.T) {
	const long = -1.2345678901234567e-6 // 25 bytes in 'f' form
	if got := len(appendFloat(nil, long)); got != 25 {
		t.Fatalf("worst-case float is %d bytes, want 25", got)
	}
	newSeries := func(points int) *trace.Series {
		ser := trace.NewSeries("v", "V")
		for k := range points {
			ser.Add(time.Date(9999, time.December, 31, 0, 0, k, 0, time.UTC), long)
		}
		return ser
	}
	cell := func(metrics, series, points int) CellResult {
		cr := CellResult{
			Cell: Cell{Index: math.MinInt, Scenario: "s", Seed: math.MinInt64, Stations: math.MinInt,
				Probes: math.MinInt, Override: "o", Days: math.MinInt},
			Err: "e",
		}
		for range metrics {
			cr.Metrics = append(cr.Metrics, Metric{Name: "m", Value: long})
		}
		for range series {
			cr.Series = append(cr.Series, newSeries(points))
		}
		return cr
	}
	// Each item's bytes are the growth it causes; a cell's own are what
	// is left of a cell with one of each.
	size := func(cr CellResult) int { return len(appendCell(nil, cr)) }
	base := size(cell(1, 1, 1))
	metric := size(cell(2, 1, 1)) - base
	point := size(cell(1, 1, 2)) - base
	series := size(cell(1, 2, 1)) - base - point
	for _, c := range []struct {
		item        string
		got, budget int
	}{
		{"cell", base - metric - series - point, cellJSONBytes + len("s") + len("o") + len("e")},
		{"metric", metric, metricJSONBytes + len("m")},
		{"series", series, seriesJSONBytes + len("v") + len("V")},
		{"point", point, pointJSONBytes},
	} {
		if c.got > c.budget {
			t.Errorf("worst-case %s takes %d bytes, budget %d", c.item, c.got, c.budget)
		}
	}
	st := Stats{Name: "m", N: math.MinInt, Mean: long, Stddev: long, CI95: long, Min: long, Max: long}
	group := func(stats int) []Group {
		return []Group{{Scenario: "s", Stations: math.MinInt, Probes: math.MinInt, Override: "o",
			Days: math.MinInt, N: math.MinInt, Errors: math.MinInt, Stats: slices.Repeat([]Stats{st}, stats)}}
	}
	// A group's room holds the comma and line break ahead of it.
	gsize := func(stats int) int {
		return len(appendGroup(appendBreak([]byte{'}'}, 2), group(stats)[0])) - 1
	}
	stats := gsize(2) - gsize(1)
	if got, budget := gsize(1)-stats, groupsSize(group(0)); got > budget {
		t.Errorf("worst-case group takes %d bytes, budget %d", got, budget)
	}
	if budget := statsJSONBytes + len("m"); stats > budget {
		t.Errorf("worst-case stats take %d bytes, budget %d", stats, budget)
	}
}
