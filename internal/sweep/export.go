// Machine-readable encoders for sweep summaries: the CSV tables and JSON
// documents that figures and external tooling consume, alongside the ASCII
// String() rendering. Both encoders walk cells and groups in enumeration
// order, so — like String() — their output is byte-identical for any
// worker count. Non-finite values (a NaN or ±Inf metric a hook slipped
// past the statsOf guard) are encoded as empty CSV fields and JSON nulls
// rather than breaking the encoding.
package sweep

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/trace"
)

// metricColumns returns the union of metric names across every cell, in
// first-seen order (deterministic, since cells are in enumeration order),
// and each name's position in that list.
func (s *Summary) metricColumns() ([]string, map[string]int) {
	var names []string
	column := map[string]int{}
	for _, cr := range s.Cells {
		for _, m := range cr.Metrics {
			if _, ok := column[m.Name]; !ok {
				column[m.Name] = len(names)
				names = append(names, m.Name)
			}
		}
	}
	return names, column
}

// csvFloat renders a value for a CSV field: shortest exact representation,
// empty for non-finite values.
func csvFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return ""
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// cellIdentityColumns are the cells table's columns ahead of the metrics.
// weather and probe_lifetime are the removed grid axes, written empty so
// the table stays byte-identical to the one they used to fill.
var cellIdentityColumns = []string{"index", "scenario", "seed", "stations", "probes",
	"weather", "probe_lifetime", "override", "days", "err"}

// WriteCellsCSV writes one flat table with a row per cell: the cell's
// identity columns, its error if any, then one column per metric (the
// union across all cells; a metric a cell lacks is an empty field). The
// rows' fields are formatted on the worker pool; encoding/csv then writes
// the rows in plan order.
func (s *Summary) WriteCellsCSV(w io.Writer) error {
	metrics, column := s.metricColumns()
	cw := csv.NewWriter(w)
	if err := cw.Write(slices.Concat(cellIdentityColumns, metrics)); err != nil {
		return err
	}
	width := len(cellIdentityColumns) + len(metrics)
	rows := make([][]string, len(s.Cells))
	fanOut(len(s.Cells), 0, func(i int) { rows[i] = cellRow(s.Cells[i], column, width) })
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// cellRow formats one cell's row of the cells table, width fields wide.
// column maps a metric name to its position among the metric columns; a
// metric the cell lacks stays an empty field.
func cellRow(cr CellResult, column map[string]int, width int) []string {
	c := cr.Cell
	row := append(make([]string, 0, width),
		strconv.Itoa(c.Index), c.Scenario, strconv.FormatInt(c.Seed, 10),
		strconv.Itoa(c.Stations), strconv.Itoa(c.Probes),
		"", "", c.Override, strconv.Itoa(c.Days), cr.Err,
	)[:width]
	// Backwards, so that of two metrics with one name the first fills the
	// column, as a Metric lookup finds it.
	for k := len(cr.Metrics) - 1; k >= 0; k-- {
		m := cr.Metrics[k]
		row[len(cellIdentityColumns)+column[m.Name]] = csvFloat(m.Value)
	}
	return row
}

// WriteGroupsCSV writes one flat table with a row per (configuration,
// metric): the configuration's identity and fold counts, then the metric's
// n/mean/stddev/min/max.
func (s *Summary) WriteGroupsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	// weather and probe_lifetime: always empty, as in WriteCellsCSV.
	if err := cw.Write([]string{"scenario", "stations", "probes", "weather", "probe_lifetime",
		"override", "days", "cells", "errors", "metric", "n", "mean", "stddev", "ci95", "min", "max"}); err != nil {
		return err
	}
	row := make([]string, 0, 16)
	for _, gr := range s.Groups {
		for _, st := range gr.Stats {
			row = append(row[:0],
				gr.Scenario, strconv.Itoa(gr.Stations), strconv.Itoa(gr.Probes),
				"", "", gr.Override, strconv.Itoa(gr.Days),
				strconv.Itoa(gr.N), strconv.Itoa(gr.Errors),
				st.Name, strconv.Itoa(st.N),
				csvFloat(st.Mean), csvFloat(st.Stddev), csvFloat(st.CI95),
				csvFloat(st.Min), csvFloat(st.Max),
			)
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV writes the summary as its two flat tables — cells, then groups
// — separated by one blank line. For single-table artifacts use
// WriteCellsCSV / WriteGroupsCSV directly.
func (s *Summary) WriteCSV(w io.Writer) error {
	if err := s.WriteCellsCSV(w); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	return s.WriteGroupsCSV(w)
}

// The JSON document schema — also the shard wire format ReadSummary
// decodes (wire.go). WriteJSON writes, without reflection, exactly the
// bytes json.MarshalIndent(doc, "", "  ") makes of these structs. Float
// fields are pointers so a JSON null, the encoding of a non-finite value,
// decodes apart from every number.
//
//glacvet:wire
type summaryJSON struct {
	Fingerprint string      `json:"fingerprint,omitempty"`
	TotalCells  int         `json:"total_cells,omitempty"`
	Cells       []cellJSON  `json:"cells"`
	Groups      []groupJSON `json:"groups"`
}

type cellJSON struct {
	Index    int          `json:"index"`
	Scenario string       `json:"scenario"`
	Seed     int64        `json:"seed"`
	Stations int          `json:"stations,omitempty"`
	Probes   int          `json:"probes,omitempty"`
	Override string       `json:"override,omitempty"`
	Days     int          `json:"days"`
	Err      string       `json:"err,omitempty"`
	Metrics  []metricJSON `json:"metrics,omitempty"`
	Series   []seriesJSON `json:"series,omitempty"`
}

type metricJSON struct {
	Name  string   `json:"name"`
	Value *float64 `json:"value"`
}

type seriesJSON struct {
	Name   string      `json:"name"`
	Unit   string      `json:"unit,omitempty"`
	Points []pointJSON `json:"points"`
}

type pointJSON struct {
	T string   `json:"t"`
	V *float64 `json:"v"`
}

type groupJSON struct {
	Scenario string      `json:"scenario"`
	Stations int         `json:"stations,omitempty"`
	Probes   int         `json:"probes,omitempty"`
	Override string      `json:"override,omitempty"`
	Days     int         `json:"days"`
	N        int         `json:"cells"`
	Errors   int         `json:"errors,omitempty"`
	Stats    []statsJSON `json:"stats"`
}

type statsJSON struct {
	Name   string   `json:"name"`
	N      int      `json:"n"`
	Mean   *float64 `json:"mean"`
	Stddev *float64 `json:"stddev"`
	CI95   *float64 `json:"ci95"`
	Min    *float64 `json:"min"`
	Max    *float64 `json:"max"`
}

// WriteJSON writes the whole summary — every cell with its metrics and
// collected series points, every group with its folded stats, plus the
// plan fingerprint and total cell count — as one indented JSON document.
// Timestamps are RFC 3339 UTC; non-finite floats become null. This
// document is the shard wire format: ReadSummary decodes it losslessly, so
// partial summaries written by one process merge in another.
//
// The document is appended directly, already indented. The cells, most of
// it, are appended on the worker pool, each into its own buffer sized for
// the most it can take, and the buffers are then joined in plan order
// between the head and the groups. Keys follow the wire structs' order and
// omitempty tags, so the bytes are exactly json.MarshalIndent's of the
// whole document.
func (s *Summary) WriteJSON(w io.Writer) error {
	parts := make([][]byte, len(s.Cells))
	fanOut(len(s.Cells), 0, func(i int) {
		parts[i] = appendCell(make([]byte, 0, cellSize(s.Cells[i])), s.Cells[i])
	})
	// The head is its fingerprint and at most 96 bytes of keys and total;
	// append still makes the room if escaping outruns that.
	n := 96 + len(s.Fingerprint) + groupsSize(s.Groups)
	for _, p := range parts {
		n += len(",\n    ") + len(p)
	}
	b := append(make([]byte, 0, n), '{')
	if s.Fingerprint != "" {
		b = appendString(appendKey(b, 1, "fingerprint"), s.Fingerprint)
	}
	if s.TotalCells != 0 {
		b = strconv.AppendInt(appendKey(b, 1, "total_cells"), int64(s.TotalCells), 10)
	}
	b = append(appendKey(b, 1, "cells"), '[')
	for _, p := range parts {
		b = append(appendBreak(b, 2), p...)
	}
	b = appendClose(b, 1, ']')
	b = append(appendKey(b, 1, "groups"), '[')
	for _, gr := range s.Groups {
		b = appendGroup(appendBreak(b, 2), gr)
	}
	b = appendClose(appendClose(b, 1, ']'), 0, '}')
	_, err := w.Write(append(b, '\n'))
	return err
}

// Byte budgets for presizing an appended cell or group, each the most an
// item takes, with the comma and line break ahead of it (a cell's are
// WriteJSON's to count), when its strings need no escaping and its times
// fall in years 0000–9999 (an int is at most 20 bytes, a float 25), so a
// cell's buffer never grows with its points.
const (
	cellJSONBytes   = 320
	metricJSONBytes = 96
	seriesJSONBytes = 128
	pointJSONBytes  = 120
	groupJSONBytes  = 288
	statsJSONBytes  = 320
)

// cellSize is the buffer appendCell is given for cr.
func cellSize(cr CellResult) int {
	n := cellJSONBytes + len(cr.Cell.Scenario) + len(cr.Cell.Override) + len(cr.Err)
	for _, m := range cr.Metrics {
		n += metricJSONBytes + len(m.Name)
	}
	for _, ser := range cr.Series {
		if ser != nil {
			n += seriesJSONBytes + len(ser.Name) + len(ser.Unit) + pointJSONBytes*ser.Len()
		}
	}
	return n
}

// groupsSize is the room the groups take in the document.
func groupsSize(groups []Group) int {
	n := 0
	for _, gr := range groups {
		n += groupJSONBytes + len(gr.Scenario) + len(gr.Override)
		for _, st := range gr.Stats {
			n += statsJSONBytes + len(st.Name)
		}
	}
	return n
}

// appendCell appends one executed cell — identity, metrics, collected
// series — as the cellJSON object at depth 2, where cells sit in the
// document: its opening brace with no indent before it, its members at
// depth 3.
func appendCell(b []byte, cr CellResult) []byte {
	c := cr.Cell
	b = append(b, '{')
	b = strconv.AppendInt(appendKey(b, 3, "index"), int64(c.Index), 10)
	b = appendString(appendKey(b, 3, "scenario"), c.Scenario)
	b = strconv.AppendInt(appendKey(b, 3, "seed"), c.Seed, 10)
	if c.Stations != 0 {
		b = strconv.AppendInt(appendKey(b, 3, "stations"), int64(c.Stations), 10)
	}
	if c.Probes != 0 {
		b = strconv.AppendInt(appendKey(b, 3, "probes"), int64(c.Probes), 10)
	}
	if c.Override != "" {
		b = appendString(appendKey(b, 3, "override"), c.Override)
	}
	b = strconv.AppendInt(appendKey(b, 3, "days"), int64(c.Days), 10)
	if cr.Err != "" {
		b = appendString(appendKey(b, 3, "err"), cr.Err)
	}
	if len(cr.Metrics) > 0 {
		b = append(appendKey(b, 3, "metrics"), '[')
		for _, m := range cr.Metrics {
			b = append(appendBreak(b, 4), '{')
			b = appendString(appendKey(b, 5, "name"), m.Name)
			b = appendFloat(appendKey(b, 5, "value"), m.Value)
			b = appendClose(b, 4, '}')
		}
		b = appendClose(b, 3, ']')
	}
	// Nil entries are skipped, so series is omitted unless one is set.
	if slices.ContainsFunc(cr.Series, func(ser *trace.Series) bool { return ser != nil }) {
		b = append(appendKey(b, 3, "series"), '[')
		for _, ser := range cr.Series {
			if ser == nil {
				continue
			}
			b = append(appendBreak(b, 4), '{')
			b = appendString(appendKey(b, 5, "name"), ser.Name)
			if ser.Unit != "" {
				b = appendString(appendKey(b, 5, "unit"), ser.Unit)
			}
			b = append(appendKey(b, 5, "points"), '[')
			for i, n := 0, ser.Len(); i < n; i++ {
				p := ser.PointAt(i)
				b = append(appendKey(append(appendBreak(b, 6), '{'), 7, "t"), '"')
				b = append(p.T.UTC().AppendFormat(b, time.RFC3339), '"')
				b = appendFloat(appendKey(b, 7, "v"), p.V)
				b = appendClose(b, 6, '}')
			}
			b = appendClose(appendClose(b, 5, ']'), 4, '}')
		}
		b = appendClose(b, 3, ']')
	}
	return appendClose(b, 2, '}')
}

// appendGroup appends one group and its folded stats as the groupJSON
// object at depth 2, its opening brace with no indent before it.
func appendGroup(b []byte, gr Group) []byte {
	b = append(b, '{')
	b = appendString(appendKey(b, 3, "scenario"), gr.Scenario)
	if gr.Stations != 0 {
		b = strconv.AppendInt(appendKey(b, 3, "stations"), int64(gr.Stations), 10)
	}
	if gr.Probes != 0 {
		b = strconv.AppendInt(appendKey(b, 3, "probes"), int64(gr.Probes), 10)
	}
	if gr.Override != "" {
		b = appendString(appendKey(b, 3, "override"), gr.Override)
	}
	b = strconv.AppendInt(appendKey(b, 3, "days"), int64(gr.Days), 10)
	b = strconv.AppendInt(appendKey(b, 3, "cells"), int64(gr.N), 10)
	if gr.Errors != 0 {
		b = strconv.AppendInt(appendKey(b, 3, "errors"), int64(gr.Errors), 10)
	}
	b = append(appendKey(b, 3, "stats"), '[')
	for _, st := range gr.Stats {
		b = append(appendBreak(b, 4), '{')
		b = appendString(appendKey(b, 5, "name"), st.Name)
		b = strconv.AppendInt(appendKey(b, 5, "n"), int64(st.N), 10)
		b = appendFloat(appendKey(b, 5, "mean"), st.Mean)
		b = appendFloat(appendKey(b, 5, "stddev"), st.Stddev)
		b = appendFloat(appendKey(b, 5, "ci95"), st.CI95)
		b = appendFloat(appendKey(b, 5, "min"), st.Min)
		b = appendFloat(appendKey(b, 5, "max"), st.Max)
		b = appendClose(b, 4, '}')
	}
	return appendClose(appendClose(b, 3, ']'), 2, '}')
}

// newlineIndent supplies MarshalIndent's line break and two spaces per
// level, up to the deepest level of the document (a point's members, 7).
const newlineIndent = "\n                "

// appendBreak starts a new member or element at depth: a comma after the
// previous one, unless b has just opened its object or array, then a line
// break and the indent. No value ends in '{' or '[', so the last byte
// tells the two apart.
func appendBreak(b []byte, depth int) []byte {
	if c := b[len(b)-1]; c != '{' && c != '[' {
		b = append(b, ',')
	}
	return append(b, newlineIndent[:1+2*depth]...)
}

// appendKey starts an object member at depth: the break and the quoted
// key, ready for its value. Keys are the schema's, which need no escaping.
func appendKey(b []byte, depth int, key string) []byte {
	b = append(appendBreak(b, depth), '"')
	b = append(b, key...)
	return append(b, `": `...)
}

// appendClose closes an object or array whose members sit at depth+1. An
// empty one stays closed on its line, as [] or {}.
func appendClose(b []byte, depth int, c byte) []byte {
	if open := b[len(b)-1]; open != '{' && open != '[' {
		b = append(b, newlineIndent[:1+2*depth]...)
	}
	return append(b, c)
}

// appendString appends s as a JSON string. One of printable ASCII alone,
// apart from the quote, the backslash and the HTML-escaped <, > and &, is
// copied between quotes; any other goes through json.Marshal, so its
// escapes, U+2028/2029 and invalid UTF-8 come out exactly as
// encoding/json writes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends v as encoding/json writes a float64: the shortest
// decimal that reads back as v, in 'f' form for 1e-6 <= |v| < 1e21 and
// zero, otherwise in 'e' form with a one-digit negative exponent unpadded
// (1e-7, not 1e-07). NaN and ±Inf, which JSON cannot hold, become null.
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
