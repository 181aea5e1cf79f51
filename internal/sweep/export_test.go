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
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/station"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden export files")

// exportGrid is the small two-scenario sweep every export test runs: 2
// scenarios x 2 seeds, two simulated days each, with a Collect hook that
// captures the first base station's battery voltage every two hours.
func exportGrid() Grid {
	return Grid{
		Scenarios: []string{"as-deployed-2008", "dual-base"},
		Seeds:     SeedRange(1, 2),
		Days:      2,
		Collect: func(c Cell, d *deploy.Deployment) []*trace.Series {
			base := firstBase(d)
			s, _ := trace.Sample(d.Sim, 2*time.Hour, "base-volts", "V",
				func(time.Time) float64 { return base.Node().Bus.VoltageNow() })
			return []*trace.Series{s}
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

// TestCollectSeriesSurvivesExport checks the full path of the tentpole: a
// Collect hook's series lands on the cell with a t=0 baseline, covers the
// whole run, and every point reaches both encoders.
func TestCollectSeriesSurvivesExport(t *testing.T) {
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
// json.MarshalIndent bytes WriteJSON writes: the oracle for its one-pass
// indenter.
func (s *Summary) document() summaryJSON {
	doc := s.head()
	doc.Cells = make([]cellJSON, 0, len(s.Cells))
	for _, cr := range s.Cells {
		doc.Cells = append(doc.Cells, cellToJSON(cr))
	}
	return doc
}

// WriteJSON's one-pass indenter must lay a document out byte for byte as
// json.MarshalIndent does, the encoder it replaced: on names that need
// escaping, on empty arrays and on every shape of number and null.
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
	cases := []struct {
		name string
		sum  *Summary
	}{
		// Every name carries JSON's structural bytes, so a string the
		// indenter ends early shows up as misplaced layout.
		{"quote", named(`say "a, b": [c] {d}`)},
		{"backslash", named(`C:\dir\`)},
		{"backslash before structure", named(`C:\, [x]: {y}\`)},
		{"escaped quote after backslashes", named(`a\\", b\": [c]`)},
		{"html", named("<probe> & <base>, [x]")},
		{"line separators", named("a\u2028b\u2029c, [x]")},
		{"control bytes", named("tab\tnl\ncr\rnul\x00esc\x1b, [x]")},
		{"non-ASCII", named("Skaftafellsjökull ÿ 氷河 🧊, {x}")},
		{"invalid UTF-8", named("bad\xffbyte, [x]")},
		{"empty summary", &Summary{}},
		{"empty series, points and stats", &Summary{
			Cells:  []CellResult{{Cell: Cell{Scenario: "s", Days: 1}, Series: []*trace.Series{trace.NewSeries("none", "")}}},
			Groups: []Group{{Scenario: "s", Days: 1}},
		}},
		{"empty groups", &Summary{Cells: []CellResult{{Cell: Cell{Scenario: "s", Days: 1}}}}},
		{"nulls", metrics(math.NaN(), math.Inf(1), math.Inf(-1))},
		{"numbers", metrics(-0.5, 1e-7, 1e21, 0, math.Copysign(0, -1), 123456789.125, -1e-300)},
		{"non-finite series", nonFiniteSummary()},
		// The cells are marshalled on the pool: more of them than it has
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

// appendIndent on values the summary schema never produces — empty
// objects, nested empties, bare scalars — still matches json.Indent.
func TestAppendIndentMatchesJSONIndent(t *testing.T) {
	for _, v := range []any{
		map[string]any{},
		[]any{},
		map[string]any{"a": map[string]any{}, "b": []any{}, "c": []any{map[string]any{}, []any{}}},
		[]any{[]any{[]any{1, "x"}}, nil, true, false},
		"just a string",
		-0.5,
		nil,
	} {
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, compact, "", "  "); err != nil {
			t.Fatal(err)
		}
		if got := appendIndent(nil, compact); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: appendIndent gave\n%s\nwant\n%s", compact, got, want.Bytes())
		}
	}
}
