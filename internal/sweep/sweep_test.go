package sweep

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func TestSeedRange(t *testing.T) {
	got := SeedRange(40, 3)
	want := []int64{40, 41, 42}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SeedRange(40, 3) = %v, want %v", got, want)
	}
	if SeedRange(1, 0) != nil || SeedRange(1, -2) != nil {
		t.Fatal("non-positive count should give no seeds")
	}
}

func TestCellsEnumerationOrder(t *testing.T) {
	g := Grid{
		Scenarios: []string{"as-deployed-2008", "dual-base"},
		Seeds:     []int64{1, 2},
		Overrides: []Override{{Name: "a"}, {Name: "b"}},
		Days:      5,
	}
	cells, err := Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("2 scenarios x 2 seeds x 2 overrides = %d cells, want 8", len(cells))
	}
	// Fixed order: scenario outer, then seed, then override; indices match
	// positions.
	cell := func(i int, scen string, seed int64, ov string) Cell {
		return Cell{Index: i, Scenario: scen, Seed: seed, Override: ov, Days: 5}
	}
	want := []Cell{
		cell(0, "as-deployed-2008", 1, "a"),
		cell(1, "as-deployed-2008", 1, "b"),
		cell(2, "as-deployed-2008", 2, "a"),
		cell(3, "as-deployed-2008", 2, "b"),
		cell(4, "dual-base", 1, "a"),
		cell(5, "dual-base", 1, "b"),
		cell(6, "dual-base", 2, "a"),
		cell(7, "dual-base", 2, "b"),
	}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("cells = %v, want %v", cells, want)
	}
}

func TestCellsResolvesScenarioDefaultHorizon(t *testing.T) {
	g := Grid{Scenarios: []string{"fleet-N"}, Seeds: []int64{1}}
	cells, err := Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := scenario.Lookup("fleet-N")
	if cells[0].Days != s.DefaultDays {
		t.Fatalf("cell horizon %d, want scenario default %d", cells[0].Days, s.DefaultDays)
	}
}

func TestCellsValidation(t *testing.T) {
	// 17 seeds × 61681 fleet sizes is one cell past Plan's size bound,
	// which must be refused before the plan is allocated.
	wide := make([]int, 61681)
	for i := range wide {
		wide[i] = i + 1
	}
	if 17*len(wide) != maxPlanCells+1 {
		t.Fatalf("oversized grid has %d cells, want the bound plus one", 17*len(wide))
	}
	cases := []struct {
		name string
		g    Grid
		want string
	}{
		{"no scenarios", Grid{Seeds: []int64{1}}, "no scenarios"},
		{"no seeds", Grid{Scenarios: []string{"dual-base"}}, "no seeds"},
		{"unknown scenario", Grid{Scenarios: []string{"no-such"}, Seeds: []int64{1}}, "not registered"},
		{"unnamed override", Grid{Scenarios: []string{"dual-base"}, Seeds: []int64{1},
			Overrides: []Override{{}}}, "needs a name"},
		{"duplicate override", Grid{Scenarios: []string{"dual-base"}, Seeds: []int64{1},
			Overrides: []Override{{Name: "x"}, {Name: "x"}}}, "duplicate override"},
		{"negative days", Grid{Scenarios: []string{"dual-base"}, Seeds: []int64{1}, Days: -1}, "negative horizon"},
		{"duplicate scenario", Grid{Scenarios: []string{"dual-base", "dual-base"},
			Seeds: []int64{1}}, "duplicate scenario"},
		{"duplicate seed", Grid{Scenarios: []string{"dual-base"},
			Seeds: []int64{1, 2, 1}}, "duplicate seed"},
		{"duplicate stations", Grid{Scenarios: []string{"fleet-N"}, Seeds: []int64{1},
			Stations: []int{4, 4}}, "duplicate fleet size"},
		{"duplicate probes", Grid{Scenarios: []string{"dual-base"}, Seeds: []int64{1},
			Probes: []int{3, 3}}, "duplicate cohort size"},
		{"oversized plan", Grid{Scenarios: []string{"fleet-N"}, Seeds: SeedRange(1, 17),
			Stations: wide}, "more than"},
	}
	for _, c := range cases {
		if _, err := Plan(c.g); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// A fleet size a scenario does not build is refused when the grid is
// planned, naming the grid point, rather than planned into cells that
// each fail alone while the run returns no error.
func TestPlanRefusesAFleetSizeTheScenarioDoesNotBuild(t *testing.T) {
	for _, c := range []struct {
		g    Grid
		want string
	}{
		{Grid{Scenarios: []string{"as-deployed-2008"}, Seeds: []int64{5}, Stations: []int{5}},
			`grid point as-deployed-2008 stations=5 probes=0: station count mismatch: scenario "as-deployed-2008" builds 2 stations, not 5`},
		{Grid{Scenarios: []string{"dual-base", "fleet-N"}, Seeds: SeedRange(1, 3), Stations: []int{3, 1}, Probes: []int{2}},
			`grid point dual-base stations=1 probes=2: station count mismatch: scenario "dual-base" builds 3 stations, not 1`},
		{Grid{Scenarios: []string{"fleet-N"}, Seeds: []int64{1}, Stations: []int{8, 1}},
			`grid point fleet-N stations=1 probes=0: station count mismatch: scenario "fleet-N" builds 2 stations, not 1`},
	} {
		_, err := Plan(c.g)
		if !errors.Is(err, scenario.ErrStations) || err.Error() != "sweep: "+c.want {
			t.Errorf("Plan(%+v): err = %v, want sweep: %s", c.g, err, c.want)
		}
		if _, err := Run(c.g, 1); !errors.Is(err, scenario.ErrStations) {
			t.Errorf("Run(%+v): err = %v, want the grid refused", c.g, err)
		}
	}
	// The sizes each scenario does build still plan.
	g := Grid{Scenarios: []string{"fleet-N"}, Seeds: []int64{1}, Stations: []int{2, 1000}, Days: 1}
	if cells, err := Plan(g); err != nil || len(cells) != 2 {
		t.Fatalf("fleet-N at 2 and 1000 stations: %d cells, err %v", len(cells), err)
	}
}

// A grid naming a scenario this binary lacks is refused before its plan
// is sized: 2 scenarios × 8 seeds × 61681 fleet sizes, just under the
// bound, with the second scenario unknown, allocate nothing like the
// 68 MiB of cells they would fill.
func TestUnknownScenarioAllocatesNoPlan(t *testing.T) {
	wide := make([]int, 61681)
	for i := range wide {
		wide[i] = i + 1
	}
	g := Grid{Scenarios: []string{"fleet-N", "no-such"}, Seeds: SeedRange(1, 8), Stations: wide}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Plan(g); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("err = %v, want the unknown scenario refused", err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Fatalf("refused plan allocated %d bytes, want under 8 MiB", alloc)
	}
}

// The acceptance property: same grid, workers=1 vs workers=8, byte-identical
// output. Each cell owns an independent Deployment, results land by cell
// index, and the fold visits cells in enumeration order, so worker count
// must not leak into the Summary at all.
func TestRunWorkerCountIndependence(t *testing.T) {
	g := Grid{
		Scenarios: []string{"fleet-N"},
		Seeds:     SeedRange(1, 8),
		Stations:  []int{4},
		Days:      2,
	}
	serial, err := Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("workers=1 and workers=8 summaries differ structurally")
	}
	if serial.String() != parallel.String() {
		t.Fatalf("workers=1 and workers=8 output differs:\n--- workers=1\n%s\n--- workers=8\n%s",
			serial, parallel)
	}
	for _, cr := range serial.Cells {
		if cr.Err != "" {
			t.Fatalf("cell %s failed: %s", cr.Cell.Label(), cr.Err)
		}
	}
}

func TestRunAppliesOverridesPerCell(t *testing.T) {
	sum, err := Run(Grid{
		Scenarios: []string{"as-deployed-2008"},
		Seeds:     []int64{3},
		Days:      1,
		Overrides: []Override{
			{Name: "nominal"},
			{Name: "big-cohort", Apply: func(top *deploy.Topology) {
				top.Stations[0].NumProbes = 12
			}},
		},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(sum.Cells))
	}
	nominal, _ := sum.Cells[0].Metric("probes-alive")
	big, _ := sum.Cells[1].Metric("probes-alive")
	if sum.Cells[0].Cell.Override != "nominal" || sum.Cells[1].Cell.Override != "big-cohort" {
		t.Fatalf("override order wrong: %v", sum.Cells)
	}
	if big <= nominal {
		t.Fatalf("big-cohort cell has %v probes alive, nominal %v — override not applied", big, nominal)
	}
}

func TestRunRecordsCellErrorsAndExcludesThemFromStats(t *testing.T) {
	sum, err := Run(Grid{
		Scenarios: []string{"dual-base"},
		Seeds:     []int64{1, 2},
		Days:      1,
		Overrides: []Override{{Name: "broken", Apply: func(top *deploy.Topology) {
			top.Stations = nil // Build must reject an empty fleet
		}}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range sum.Cells {
		if cr.Err == "" {
			t.Fatalf("cell %s should have failed to build", cr.Cell.Label())
		}
	}
	if len(sum.Groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(sum.Groups))
	}
	gr := sum.Groups[0]
	if gr.N != 0 || gr.Errors != 2 || len(gr.Stats) != 0 {
		t.Fatalf("group fold = N=%d Errors=%d stats=%d, want all-error", gr.N, gr.Errors, len(gr.Stats))
	}
	if !strings.Contains(sum.String(), "ERROR:") {
		t.Fatal("summary does not surface cell errors")
	}
}

func TestDriveReplacesDefaultRunAndAddsMetrics(t *testing.T) {
	sum, err := Run(Grid{
		Scenarios: []string{"as-deployed-2008"},
		Seeds:     []int64{5},
		Days:      10, // the drive runs 2 days regardless
		Drive: func(c Cell, d *deploy.Deployment) ([]Metric, []*trace.Series, error) {
			if err := d.RunDays(2); err != nil {
				return nil, nil, err
			}
			return []Metric{{Name: "drive-days", Value: 2}}, nil, nil
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cr := sum.Cells[0]
	if runs, _ := cr.Metric("runs"); runs != 4 {
		t.Fatalf("drive ran %v station-days, want 4 = 2 stations x 2 days (default horizon leaked in)", runs)
	}
	if v, ok := cr.Metric("drive-days"); !ok || v != 2 {
		t.Fatalf("drive metric missing: %v %v", v, ok)
	}
	if st, ok := sum.Groups[0].Stat("drive-days"); !ok || st.Mean != 2 {
		t.Fatalf("drive metric not folded into group stats: %+v", st)
	}
}

// A Drive that fails keeps the series it captured on the failed cell, as
// a record of how far the run got, but the cell reports no metrics: not
// the standard block, and not whatever the Drive returned beside the error.
func TestDriveErrorKeepsSeriesAndAddsNoMetrics(t *testing.T) {
	sum, err := Run(Grid{
		Scenarios: []string{"as-deployed-2008"},
		Seeds:     []int64{5},
		Days:      2,
		Drive: func(c Cell, d *deploy.Deployment) ([]Metric, []*trace.Series, error) {
			base := firstBase(d)
			s, _ := trace.Sample(d.Sim, 6*time.Hour, "base-volts", "V",
				func(time.Time) float64 { return base.Node().Bus.VoltageNow() })
			if err := d.RunDays(1); err != nil {
				return nil, nil, err
			}
			return []Metric{{Name: "drive-days", Value: 1}}, []*trace.Series{s}, errors.New("intervention refused")
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cr := sum.Cells[0]
	if cr.Err != "intervention refused" {
		t.Fatalf("cell error = %q, want the Drive's error", cr.Err)
	}
	if len(cr.Metrics) != 0 {
		t.Fatalf("failed cell reports metrics %v, want none", cr.Metrics)
	}
	ser, ok := cr.SeriesNamed("base-volts")
	if !ok {
		t.Fatal("failed cell lost the series its Drive returned")
	}
	// One day sampled every 6 h, plus the attach-time baseline.
	if ser.Len() != 5 {
		t.Fatalf("series has %d points, want 5", ser.Len())
	}
	if gr := sum.Groups[0]; gr.N != 0 || gr.Errors != 1 {
		t.Fatalf("group fold = N=%d Errors=%d, want the cell counted as an error", gr.N, gr.Errors)
	}
}

func TestDriveMetricsFoldAcrossSeeds(t *testing.T) {
	sum, err := Run(Grid{
		Scenarios: []string{"dual-base"},
		Seeds:     SeedRange(1, 3),
		Days:      1,
		Drive: func(c Cell, d *deploy.Deployment) ([]Metric, []*trace.Series, error) {
			if err := d.RunDays(c.Days); err != nil {
				return nil, nil, err
			}
			return []Metric{{Name: "seed-echo", Value: float64(c.Seed)}}, nil, nil
		},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := sum.Groups[0].Stat("seed-echo")
	if !ok {
		t.Fatal("drive metric missing from group stats")
	}
	if st.N != 3 || st.Mean != 2 || st.Min != 1 || st.Max != 3 {
		t.Fatalf("seed-echo stats = %+v, want N=3 mean=2 min=1 max=3", st)
	}
	if st.Stddev != 1 {
		t.Fatalf("seed-echo stddev = %v, want 1 (sample stddev of 1,2,3)", st.Stddev)
	}
}

// The statsOf fold must never emit the NaN mean of an empty fold or its
// ±Inf min/max init values, and non-finite hook metrics are excluded
// instead of poisoning the whole fold.
func TestStatsOfGuardsNonFiniteValues(t *testing.T) {
	if st := statsOf("empty", nil); st.N != 0 || st.Mean != 0 || st.Min != 0 || st.Max != 0 || st.Stddev != 0 {
		t.Fatalf("empty fold = %+v, want all-zero stats", st)
	}
	st := statsOf("mixed", []float64{1, math.NaN(), 3, math.Inf(1), math.Inf(-1)})
	if st.N != 2 || st.Mean != 2 || st.Min != 1 || st.Max != 3 {
		t.Fatalf("mixed fold = %+v, want N=2 mean=2 min=1 max=3 (non-finite excluded)", st)
	}
	if math.IsNaN(st.Stddev) || math.IsInf(st.Stddev, 0) {
		t.Fatalf("mixed fold stddev %v not finite", st.Stddev)
	}
	all := statsOf("all-bad", []float64{math.NaN(), math.Inf(1)})
	if all.N != 0 || all.Mean != 0 || all.Min != 0 || all.Max != 0 {
		t.Fatalf("all-non-finite fold = %+v, want all-zero stats", all)
	}
}

// String must render non-finite hook metrics uniformly ("-"): the wire
// format carries both NaN and ±Inf as null, so any NaN/Inf distinction in
// the text table would break the merged-vs-single-process byte identity.
func TestStringRendersNonFiniteMetricsUniformly(t *testing.T) {
	render := func(v float64) string {
		sum := &Summary{Cells: []CellResult{{
			Cell:    Cell{Scenario: "synthetic", Seed: 1, Days: 1},
			Metrics: []Metric{{Name: "runs", Value: v}, {Name: "mb-to-server", Value: v}},
		}}}
		return sum.String()
	}
	nan, inf := render(math.NaN()), render(math.Inf(1))
	if nan != inf {
		t.Fatalf("NaN and +Inf metrics render differently:\n--- NaN\n%s\n--- +Inf\n%s", nan, inf)
	}
	if strings.Contains(nan, "NaN") || strings.Contains(inf, "Inf") {
		t.Fatalf("non-finite value leaked into the table:\n%s", inf)
	}
}

func TestGroupsSplitByConfigurationNotSeed(t *testing.T) {
	sum, err := Run(Grid{
		Scenarios: []string{"fleet-N"},
		Seeds:     SeedRange(1, 2),
		Stations:  []int{2, 3},
		Days:      1,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Cells) != 4 || len(sum.Groups) != 2 {
		t.Fatalf("2 seeds x 2 fleet sizes: %d cells in %d groups, want 4 in 2", len(sum.Cells), len(sum.Groups))
	}
	for _, gr := range sum.Groups {
		if gr.N != 2 {
			t.Fatalf("group %s folded %d seeds, want 2", gr.Label(), gr.N)
		}
	}
	if sum.Groups[0].Stations != 2 || sum.Groups[1].Stations != 3 {
		t.Fatalf("group order wrong: %+v", sum.Groups)
	}
}

func TestStatsCI95(t *testing.T) {
	// Five values with mean 3 and sample stddev sqrt(2.5): the df=4
	// critical value 2.776 gives a hand-checkable half-width.
	st := statsOf("m", []float64{1, 2, 3, 4, 5})
	wantStddev := math.Sqrt(2.5)
	want := 2.776 * wantStddev / math.Sqrt(5)
	if math.Abs(st.CI95-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", st.CI95, want)
	}
	// Fewer than two finite values: no interval.
	if st := statsOf("m", []float64{7}); st.CI95 != 0 {
		t.Errorf("single-value CI95 = %v, want 0", st.CI95)
	}
	if st := statsOf("m", []float64{7, math.NaN()}); st.CI95 != 0 {
		t.Errorf("one-finite-value CI95 = %v, want 0", st.CI95)
	}
	// Non-finite values are excluded from the fold, not from the df.
	clean := statsOf("m", []float64{1, 2, 3})
	noisy := statsOf("m", []float64{1, math.Inf(1), 2, 3, math.NaN()})
	if clean.CI95 != noisy.CI95 {
		t.Errorf("non-finite values changed CI95: %v vs %v", noisy.CI95, clean.CI95)
	}
}

func TestTCrit95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
		tol  float64
	}{
		{1, 12.706, 0},      // exact table
		{30, 2.042, 0},      // last table entry
		{40, 2.021, 1e-9},   // anchor
		{120, 1.980, 1e-9},  // anchor
		{48, 2.011, 0.002},  // interpolated between 40 and 60
		{1000, 1.962, 0.01}, // approaching the normal limit
	}
	for _, c := range cases {
		if got := tCrit95(c.df); math.Abs(got-c.want) > c.tol {
			t.Errorf("tCrit95(%d) = %v, want %v ± %v", c.df, got, c.want, c.tol)
		}
	}
	if tCrit95(0) != 0 || tCrit95(-3) != 0 {
		t.Error("tCrit95 of non-positive df should be 0")
	}
	// Monotone decreasing towards 1.96: the interpolation must never
	// cross an anchor in the wrong direction.
	prev := tCrit95(1)
	for df := 2; df <= 200; df++ {
		got := tCrit95(df)
		if got > prev || got < 1.96 {
			t.Fatalf("tCrit95(%d) = %v not monotone in (1.96, %v]", df, got, prev)
		}
		prev = got
	}
}
