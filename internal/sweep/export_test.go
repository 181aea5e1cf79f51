package sweep

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/station"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden export files")

// exportGrid is the small two-scenario sweep every export test runs: 2
// scenarios x 2 seeds, two simulated days each, with a Drive hook that
// captures the first base station's battery voltage every two hours.
func exportGrid() Grid {
	return Grid{
		Scenarios: []string{"as-deployed-2008", "dual-base"},
		Seeds:     SeedRange(1, 2),
		Days:      2,
		Drive: func(c Cell, d *deploy.Deployment) ([]Metric, []*trace.Series, error) {
			base := firstBase(d)
			s, _ := trace.Sample(d.Sim, 2*time.Hour, "base-volts", "V",
				func(time.Time) float64 { return base.Node().Bus.VoltageNow() })
			return nil, []*trace.Series{s}, d.RunDays(c.Days)
		},
	}
}

// firstBase is the fleet's first base station in topology order.
func firstBase(d *deploy.Deployment) *station.Station {
	for _, st := range d.Stations {
		if st.Role() == station.RoleBase {
			return st
		}
	}
	panic("no base station in the fleet")
}

func runExportGrid(t *testing.T, workers int) *Summary {
	t.Helper()
	sum, err := Run(exportGrid(), workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range sum.Cells {
		if cr.Err != "" {
			t.Fatalf("cell %s failed: %s", cr.Cell.Label(), cr.Err)
		}
	}
	return sum
}

// TestExportGolden pins the CSV and JSON encodings of the export grid byte
// for byte, like the scenario golden traces pin Result.String().
// Regenerate deliberately with:
//
//	go test ./internal/sweep -run TestExportGolden -update
func TestExportGolden(t *testing.T) {
	sum := runExportGrid(t, 2)
	encoders := []struct {
		file  string
		write func(*Summary, *bytes.Buffer) error
	}{
		{"sweep.csv", func(s *Summary, b *bytes.Buffer) error { return s.WriteCSV(b) }},
		{"sweep.json", func(s *Summary, b *bytes.Buffer) error { return s.WriteJSON(b) }},
	}
	for _, enc := range encoders {
		t.Run(enc.file, func(t *testing.T) {
			var b bytes.Buffer
			if err := enc.write(sum, &b); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", enc.file)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden export (regenerate with -update): %v", err)
			}
			if !bytes.Equal(b.Bytes(), want) {
				t.Errorf("%s diverged from its golden file.\n--- got:\n%s--- want:\n%s"+
					"If the change is intentional, regenerate with: go test ./internal/sweep -run TestExportGolden -update",
					enc.file, b.String(), want)
			}
		})
	}
}

// The acceptance property extended to the encoders: CSV and JSON output
// must be byte-identical for 1, 4 and 8 workers on the same grid.
func TestExportWorkerCountIndependence(t *testing.T) {
	var baseCSV, baseJSON []byte
	for _, workers := range []int{1, 4, 8} {
		sum := runExportGrid(t, workers)
		var csvBuf, jsonBuf bytes.Buffer
		if err := sum.WriteCSV(&csvBuf); err != nil {
			t.Fatal(err)
		}
		if err := sum.WriteJSON(&jsonBuf); err != nil {
			t.Fatal(err)
		}
		if baseCSV == nil {
			baseCSV, baseJSON = csvBuf.Bytes(), jsonBuf.Bytes()
			continue
		}
		if !bytes.Equal(csvBuf.Bytes(), baseCSV) {
			t.Errorf("workers=%d CSV differs from workers=1", workers)
		}
		if !bytes.Equal(jsonBuf.Bytes(), baseJSON) {
			t.Errorf("workers=%d JSON differs from workers=1", workers)
		}
	}
}

// TestWriteJSONRoundTrip decodes WriteJSON's output back through
// json.Unmarshal and checks the structure survives: every cell, metric,
// group, stat and collected series point intact.
func TestWriteJSONRoundTrip(t *testing.T) {
	sum := runExportGrid(t, 4)
	var b bytes.Buffer
	if err := sum.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc summaryJSON
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("round-trip decode: %v", err)
	}
	if len(doc.Cells) != len(sum.Cells) || len(doc.Groups) != len(sum.Groups) {
		t.Fatalf("decoded %d cells / %d groups, want %d / %d",
			len(doc.Cells), len(doc.Groups), len(sum.Cells), len(sum.Groups))
	}
	for i, cj := range doc.Cells {
		cr := sum.Cells[i]
		if cj.Scenario != cr.Cell.Scenario || cj.Seed != cr.Cell.Seed || cj.Index != cr.Cell.Index {
			t.Fatalf("cell %d identity mangled: %+v vs %+v", i, cj, cr.Cell)
		}
		if len(cj.Metrics) != len(cr.Metrics) {
			t.Fatalf("cell %d decoded %d metrics, want %d", i, len(cj.Metrics), len(cr.Metrics))
		}
		for j, mj := range cj.Metrics {
			if mj.Value == nil || *mj.Value != cr.Metrics[j].Value {
				t.Fatalf("cell %d metric %q mangled", i, mj.Name)
			}
		}
		if len(cj.Series) != 1 {
			t.Fatalf("cell %d decoded %d series, want 1", i, len(cj.Series))
		}
	}
	for i, gj := range doc.Groups {
		if len(gj.Stats) != len(sum.Groups[i].Stats) {
			t.Fatalf("group %d decoded %d stats, want %d", i, len(gj.Stats), len(sum.Groups[i].Stats))
		}
	}
}

// TestDriveSeriesSurvivesExport checks the full path of a captured series:
// a Drive hook's series lands on the cell with a t=0 baseline, covers the
// whole run, and every point reaches both encoders.
func TestDriveSeriesSurvivesExport(t *testing.T) {
	sum := runExportGrid(t, 2)
	for _, cr := range sum.Cells {
		ser, ok := cr.SeriesNamed("base-volts")
		if !ok {
			t.Fatalf("cell %s has no collected series", cr.Cell.Label())
		}
		// 2 simulated days sampled every 2 h, plus the attach-time baseline.
		if ser.Len() != 25 {
			t.Fatalf("cell %s collected %d points, want 25", cr.Cell.Label(), ser.Len())
		}
	}
	var b bytes.Buffer
	if err := sum.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc summaryJSON
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for i, cj := range doc.Cells {
		ser, _ := sum.Cells[i].SeriesNamed("base-volts")
		pts := ser.Points()
		if len(cj.Series[0].Points) != len(pts) {
			t.Fatalf("cell %d exported %d points, want %d", i, len(cj.Series[0].Points), len(pts))
		}
		for j, pj := range cj.Series[0].Points {
			if pj.V == nil || *pj.V != pts[j].V {
				t.Fatalf("cell %d point %d value mangled", i, j)
			}
			if got, _ := time.Parse(time.RFC3339, pj.T); !got.Equal(pts[j].T) {
				t.Fatalf("cell %d point %d timestamp %s, want %s", i, j, pj.T, pts[j].T)
			}
		}
	}
}

// TestWriteCSVParsesAndAligns re-reads the cells table with encoding/csv:
// every record must have the header's width (escaping held) and the metric
// columns must carry the cell metrics.
func TestWriteCSVParsesAndAligns(t *testing.T) {
	sum := runExportGrid(t, 2)
	var b bytes.Buffer
	if err := sum.WriteCellsCSV(&b); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&b).ReadAll()
	if err != nil {
		t.Fatalf("cells CSV does not parse: %v", err)
	}
	if len(recs) != len(sum.Cells)+1 {
		t.Fatalf("cells CSV has %d records, want %d", len(recs), len(sum.Cells)+1)
	}
	header := recs[0]
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for i, cr := range sum.Cells {
		rec := recs[i+1]
		if len(rec) != len(header) {
			t.Fatalf("record %d width %d, want %d", i, len(rec), len(header))
		}
		if rec[col["scenario"]] != cr.Cell.Scenario {
			t.Fatalf("record %d scenario %q", i, rec[col["scenario"]])
		}
		want, _ := cr.Metric("runs")
		if rec[col["runs"]] != csvFloat(want) {
			t.Fatalf("record %d runs = %q, want %q", i, rec[col["runs"]], csvFloat(want))
		}
	}
}

// Each cells-table row resolves its metric columns once, on the pool: a
// field must still be what a Metric lookup of its column finds, for cells
// with different metric sets, a repeated name (the first wins) and
// non-finite values, with more cells than the pool has workers.
func TestWriteCellsCSVMatchesMetricLookup(t *testing.T) {
	sum := &Summary{}
	for i := range 3*runtime.GOMAXPROCS(0) + 1 {
		cr := CellResult{Cell: Cell{Index: i, Scenario: "s, \"quoted\"", Seed: int64(i), Days: 1}}
		for k := range i % 4 {
			cr.Metrics = append(cr.Metrics, Metric{Name: fmt.Sprintf("m%d", (i+k)%5), Value: float64(i*k) / 7})
		}
		if i%3 == 0 {
			cr.Metrics = append(cr.Metrics, Metric{Name: "m1", Value: math.NaN()}, Metric{Name: "m1", Value: 9})
		}
		sum.Cells = append(sum.Cells, cr)
	}
	var b bytes.Buffer
	if err := sum.WriteCellsCSV(&b); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&b).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := recs[0]
	metrics := header[len(cellIdentityColumns):]
	if len(metrics) != 5 {
		t.Fatalf("metric columns %q, want the five names m0..m4", metrics)
	}
	for i, cr := range sum.Cells {
		rec := recs[i+1]
		if rec[0] != strconv.Itoa(i) || rec[1] != cr.Cell.Scenario {
			t.Fatalf("record %d identity %q", i, rec[:2])
		}
		for j, name := range metrics {
			want := ""
			if v, ok := cr.Metric(name); ok {
				want = csvFloat(v)
			}
			if got := rec[len(cellIdentityColumns)+j]; got != want {
				t.Errorf("record %d column %s = %q, want %q", i, name, got, want)
			}
		}
	}
}

// Non-finite metrics must not break either encoder: CSV gets empty fields,
// JSON gets nulls — and the document still parses.
func TestExportSanitisesNonFiniteValues(t *testing.T) {
	sum := &Summary{
		Cells: []CellResult{{
			Cell: Cell{Scenario: "synthetic", Seed: 1, Days: 1},
			Metrics: []Metric{
				{Name: "ok", Value: 1.5},
				{Name: "nan", Value: math.NaN()},
				{Name: "inf", Value: math.Inf(1)},
			},
		}},
		Groups: []Group{{
			Scenario: "synthetic", Days: 1, N: 1,
			Stats: []Stats{{Name: "nan", N: 1, Mean: math.NaN(), Min: math.Inf(1), Max: math.Inf(-1)}},
		}},
	}
	var csvBuf bytes.Buffer
	if err := sum.WriteCSV(&csvBuf); err != nil {
		t.Fatalf("WriteCSV with non-finite values: %v", err)
	}
	if s := csvBuf.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Fatalf("non-finite value leaked into CSV:\n%s", s)
	}
	var jsonBuf bytes.Buffer
	if err := sum.WriteJSON(&jsonBuf); err != nil {
		t.Fatalf("WriteJSON with non-finite values: %v", err)
	}
	var doc summaryJSON
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatalf("sanitised JSON does not parse: %v", err)
	}
	if doc.Cells[0].Metrics[1].Value != nil || doc.Cells[0].Metrics[2].Value != nil {
		t.Fatal("non-finite metric values not encoded as null")
	}
	if doc.Groups[0].Stats[0].Mean != nil {
		t.Fatal("non-finite stat mean not encoded as null")
	}
}

// An empty summary still encodes to valid, parseable documents.
func TestExportEmptySummary(t *testing.T) {
	sum := &Summary{}
	var csvBuf, jsonBuf bytes.Buffer
	if err := sum.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := sum.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatalf("empty-summary JSON does not parse: %v", err)
	}
	r := csv.NewReader(strings.NewReader(csvBuf.String()))
	r.FieldsPerRecord = -1 // the two tables have different widths
	if _, err := r.ReadAll(); err != nil {
		t.Fatalf("empty-summary CSV does not parse: %v", err)
	}
}

// document builds the summary's whole wire document, the value whose
// json.MarshalIndent bytes WriteJSON writes: the reflective oracle for its
// direct appender.
func (s *Summary) document() summaryJSON {
	doc := s.head()
	doc.Cells = make([]cellJSON, 0, len(s.Cells))
	for _, cr := range s.Cells {
		doc.Cells = append(doc.Cells, cellToJSON(cr))
	}
	return doc
}

// head builds the summary's wire document with its cells list empty: the
// plan identity and the groups.
func (s *Summary) head() summaryJSON {
	doc := summaryJSON{
		Fingerprint: s.Fingerprint,
		TotalCells:  s.TotalCells,
		Cells:       []cellJSON{},
		Groups:      make([]groupJSON, 0, len(s.Groups)),
	}
	for _, gr := range s.Groups {
		gj := groupJSON{
			Scenario: gr.Scenario, Stations: gr.Stations, Probes: gr.Probes,
			Override: gr.Override, Days: gr.Days, N: gr.N, Errors: gr.Errors,
			Stats: make([]statsJSON, 0, len(gr.Stats)),
		}
		for _, st := range gr.Stats {
			gj.Stats = append(gj.Stats, statsJSON{
				Name: st.Name, N: st.N,
				Mean: finite(st.Mean), Stddev: finite(st.Stddev), CI95: finite(st.CI95),
				Min: finite(st.Min), Max: finite(st.Max),
			})
		}
		doc.Groups = append(doc.Groups, gj)
	}
	return doc
}

// cellToJSON builds one executed cell — identity, metrics, collected
// series — as its wire document, a cell of the summary WriteJSON writes.
func cellToJSON(cr CellResult) cellJSON {
	c := cr.Cell
	cj := cellJSON{
		Index: c.Index, Scenario: c.Scenario, Seed: c.Seed,
		Stations: c.Stations, Probes: c.Probes,
		Override: c.Override, Days: c.Days, Err: cr.Err,
	}
	if len(cr.Metrics) > 0 {
		cj.Metrics = make([]metricJSON, 0, len(cr.Metrics))
		for _, m := range cr.Metrics {
			cj.Metrics = append(cj.Metrics, metricJSON{Name: m.Name, Value: finite(m.Value)})
		}
	}
	for _, ser := range cr.Series {
		if ser == nil {
			continue
		}
		// Points stays non-nil: an empty series encodes as [], not null.
		sj := seriesJSON{Name: ser.Name, Unit: ser.Unit, Points: make([]pointJSON, 0, ser.Len())}
		for i, n := 0, ser.Len(); i < n; i++ {
			p := ser.PointAt(i)
			sj.Points = append(sj.Points, pointJSON{T: p.T.UTC().Format(time.RFC3339), V: finite(p.V)})
		}
		cj.Series = append(cj.Series, sj)
	}
	return cj
}

// finite returns &v, or nil (→ JSON null) for NaN/±Inf.
func finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// WriteJSON's direct appender must lay a document out byte for byte as
// json.MarshalIndent does of the wire structs: on names that need
// escaping, on every omitempty, on empty arrays and on every shape of
// number and null.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	t0 := time.Date(2008, 8, 1, 0, 0, 0, 0, time.UTC)
	named := func(name string) *Summary {
		ser := trace.NewSeries(name, name)
		ser.Add(t0, 1)
		return &Summary{
			Fingerprint: name,
			Cells: []CellResult{{
				Cell:    Cell{Scenario: name, Seed: 1, Override: name, Days: 1},
				Err:     name,
				Metrics: []Metric{{Name: name, Value: 2}},
				Series:  []*trace.Series{ser},
			}},
			Groups: []Group{{Scenario: name, Override: name, Days: 1, N: 1, Stats: []Stats{{Name: name, N: 1}}}},
		}
	}
	metrics := func(vs ...float64) *Summary {
		cr := CellResult{Cell: Cell{Scenario: "s", Seed: 1, Days: 1}}
		st := Stats{Name: "m", N: len(vs)}
		for _, v := range vs {
			cr.Metrics = append(cr.Metrics, Metric{Name: "m", Value: v})
		}
		if len(vs) > 0 {
			st.Mean, st.Stddev, st.CI95, st.Min, st.Max = vs[0], vs[0], vs[0], vs[0], vs[len(vs)-1]
		}
		return &Summary{TotalCells: 1, Cells: []CellResult{cr},
			Groups: []Group{{Scenario: "s", Days: 1, N: 1, Stats: []Stats{st}}}}
	}
	many := func(n int, fingerprint string, total int) *Summary {
		sum := &Summary{Fingerprint: fingerprint, TotalCells: total}
		for i := range n {
			ser := trace.NewSeries(fmt.Sprintf("v%d", i), "V")
			for k := range i % 4 {
				ser.Add(t0.Add(time.Duration(k)*time.Hour), float64(i*k)/3)
			}
			sum.Cells = append(sum.Cells, CellResult{
				Cell:    Cell{Index: i, Scenario: "s", Seed: int64(i), Stations: i % 3, Days: 1},
				Metrics: []Metric{{Name: "m", Value: float64(i) / 7}, {Name: "nan", Value: math.NaN()}},
				Series:  []*trace.Series{ser},
			})
		}
		sum.Groups = []Group{{Scenario: "s", Days: 1, N: n, Stats: []Stats{{Name: "m", N: n, Mean: 1}}}}
		return sum
	}
	points := func(n int) *trace.Series {
		ser := trace.NewSeries("v", "V")
		for k := range n {
			ser.Add(t0.Add(time.Duration(k)*time.Minute), float64(k)/3)
		}
		return ser
	}
	cases := []struct {
		name string
		sum  *Summary
	}{
		// Every name carries JSON's structural bytes and, but for the
		// first, a byte that sends it through json.Marshal.
		{"quote", named(`say "a, b": [c] {d}`)},
		{"backslash", named(`C:\dir\`)},
		{"backslash before structure", named(`C:\, [x]: {y}\`)},
		{"escaped quote after backslashes", named(`a\\", b\": [c]`)},
		{"html", named("<probe> & <base>, [x]")},
		{"line separators", named("a\u2028b\u2029c, [x]")},
		{"control bytes", named("tab\tnl\ncr\rnul\x00esc\x1b, [x]")},
		{"non-ASCII", named("Skaftafellsjökull ÿ 氷河 🧊, {x}")},
		{"invalid UTF-8", named("bad\xffbyte, [x]")},
		{"DEL", named("tilde~del\x7f, [x]")},
		{"empty summary", &Summary{}},
		{"empty series, points and stats", &Summary{
			Cells:  []CellResult{{Cell: Cell{Scenario: "s", Days: 1}, Series: []*trace.Series{trace.NewSeries("none", "")}}},
			Groups: []Group{{Scenario: "s", Days: 1}},
		}},
		{"empty groups", &Summary{Cells: []CellResult{{Cell: Cell{Scenario: "s", Days: 1}}}}},
		// Nil series are skipped, and a cell with no other is written
		// without its series key.
		{"only nil series", &Summary{Cells: []CellResult{{
			Cell: Cell{Scenario: "s", Days: 1}, Series: []*trace.Series{nil, nil},
		}}}},
		{"nil series between others", &Summary{Cells: []CellResult{{
			Cell:   Cell{Scenario: "s", Days: 1},
			Series: []*trace.Series{nil, trace.NewSeries("a", ""), nil, nonFiniteSummary().Cells[0].Series[0], nil},
		}}}},
		{"nulls", metrics(math.NaN(), math.Inf(1), math.Inf(-1))},
		{"numbers", metrics(-0.5, 1e-7, 1e21, 0, math.Copysign(0, -1), 123456789.125, -1e-300)},
		// encoding/json switches between 'f' and 'e' form at 1e-6 and
		// 1e21: each edge and the largest float64 below it, both signs.
		{"format edges", metrics(
			1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
			-1e-6, math.Nextafter(-1e-6, 0), -1e21, math.Nextafter(-1e21, 0),
			math.SmallestNonzeroFloat64, math.MaxFloat64)},
		{"non-finite series", nonFiniteSummary()},
		// Escaping makes the first cell outgrow the room it was given,
		// and the cell after it must still follow it exactly: a bare one,
		// and one whose points leave its own room far from full.
		{"escapes outgrow a cell's room", &Summary{Cells: []CellResult{
			{Cell: Cell{Scenario: strings.Repeat("\x00<", 100), Days: 1}},
			{Cell: Cell{Index: 1, Scenario: "s", Days: 1}},
		}}},
		{"escapes outgrow a cell's room before a roomy one", &Summary{Cells: []CellResult{
			{Cell: Cell{Scenario: strings.Repeat("\x00<", 100), Days: 1}, Err: strings.Repeat("&", 200)},
			{Cell: Cell{Index: 1, Scenario: "s", Days: 1}, Series: []*trace.Series{points(100)}},
			{Cell: Cell{Index: 2, Scenario: "s", Days: 1}, Series: []*trace.Series{points(100)}},
		}}},
		// The cells are appended on the pool: more of them than it has
		// workers, each different, must still land in plan order.
		{"more cells than workers", many(3*runtime.GOMAXPROCS(0)+1, "0123456789abcdef", 40)},
		// An empty fingerprint and zero total are omitted, so the cells
		// open the document.
		{"omitted head", many(5, "", 0)},
		{"cells key in the fingerprint", many(2, `"cells":[1],"groups":[`, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := tc.sum.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			want, err := json.MarshalIndent(tc.sum.document(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("WriteJSON differs from MarshalIndent:\n--- got\n%s\n--- want\n%s", got.Bytes(), want)
			}
		})
	}
}
