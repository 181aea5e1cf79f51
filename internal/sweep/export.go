// Machine-readable encoders for sweep summaries: the CSV tables and JSON
// documents that figures and external tooling consume, alongside the ASCII
// String() rendering. Both encoders walk cells and groups in enumeration
// order, so — like String() — their output is byte-identical for any
// worker count. Non-finite values (a NaN or ±Inf metric a hook slipped
// past the statsOf guard) are encoded as empty CSV fields and JSON nulls
// rather than breaking the encoding.
package sweep

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"time"
)

// metricColumns returns the union of metric names across every cell, in
// first-seen order (deterministic, since cells are in enumeration order).
func (s *Summary) metricColumns() []string {
	var names []string
	seen := map[string]bool{}
	for _, cr := range s.Cells {
		for _, m := range cr.Metrics {
			if !seen[m.Name] {
				seen[m.Name] = true
				names = append(names, m.Name)
			}
		}
	}
	return names
}

// csvFloat renders a value for a CSV field: shortest exact representation,
// empty for non-finite values.
func csvFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return ""
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCellsCSV writes one flat table with a row per cell: the cell's
// identity columns, its error if any, then one column per metric (the
// union across all cells; a metric a cell lacks is an empty field).
func (s *Summary) WriteCellsCSV(w io.Writer) error {
	metrics := s.metricColumns()
	cw := csv.NewWriter(w)
	// weather and probe_lifetime are the removed grid axes, written empty
	// so the table stays byte-identical to the one they used to fill.
	header := append([]string{"index", "scenario", "seed", "stations", "probes",
		"weather", "probe_lifetime", "override", "days", "err"}, metrics...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header))
	for _, cr := range s.Cells {
		c := cr.Cell
		row = append(row[:0],
			strconv.Itoa(c.Index), c.Scenario, strconv.FormatInt(c.Seed, 10),
			strconv.Itoa(c.Stations), strconv.Itoa(c.Probes),
			"", "", c.Override, strconv.Itoa(c.Days), cr.Err,
		)
		for _, name := range metrics {
			if v, ok := cr.Metric(name); ok {
				row = append(row, csvFloat(v))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
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
// decodes (wire.go). Float fields are pointers so non-finite values encode
// as null instead of erroring encoding/json out.
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

// finite returns &v, or nil (→ JSON null) for NaN/±Inf.
func finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// cellToJSON encodes one executed cell — identity, metrics, collected
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
		// Exact-capacity points, iterated via PointAt so the series is not
		// copied wholesale just to encode it. Points stays non-nil (empty
		// series encode as [] rather than null).
		sj := seriesJSON{Name: ser.Name, Unit: ser.Unit, Points: make([]pointJSON, 0, ser.Len())}
		for i, n := 0, ser.Len(); i < n; i++ {
			p := ser.PointAt(i)
			sj.Points = append(sj.Points, pointJSON{T: p.T.UTC().Format(time.RFC3339), V: finite(p.V)})
		}
		cj.Series = append(cj.Series, sj)
	}
	return cj
}

// WriteJSON writes the whole summary — every cell with its metrics and
// collected series points, every group with its folded stats, plus the
// plan fingerprint and total cell count — as one indented JSON document.
// Timestamps are RFC 3339 UTC; non-finite floats become null. This
// document is the shard wire format: ReadSummary decodes it losslessly, so
// partial summaries written by one process merge in another.
//
// The cells are most of the document, so each is marshalled on the worker
// pool and the parts are spliced, in plan order, into the marshalled rest;
// the bytes are exactly json.MarshalIndent's of the whole document.
func (s *Summary) WriteJSON(w io.Writer) error {
	parts := make([][]byte, len(s.Cells))
	errs := make([]error, len(s.Cells))
	fanOut(len(s.Cells), 0, func(i int) {
		parts[i], errs[i] = json.Marshal(cellToJSON(s.Cells[i]))
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	rest, err := json.Marshal(s.head())
	if err != nil {
		return err
	}
	// The cells array opens after the fingerprint and total cell count,
	// and is empty in rest. Only the fingerprint is a string ahead of it,
	// and a string cannot hold this key's unescaped closing quote, so the
	// first match is the array.
	at := bytes.Index(rest, []byte(`"cells":[`)) + len(`"cells":[`)
	size := len(rest) + len(parts)
	for _, p := range parts {
		size += len(p)
	}
	compact := append(make([]byte, 0, size), rest[:at]...)
	for i, p := range parts {
		if i > 0 {
			compact = append(compact, ',')
		}
		compact = append(compact, p...)
	}
	compact = append(compact, rest[at:]...)
	// Indenting a summary slightly more than doubles it.
	out := appendIndent(make([]byte, 0, 5*len(compact)/2), compact)
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
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

// appendIndent appends src, a compact document as json.Marshal writes it,
// to dst with exactly the layout json.Indent(dst, src, "", "  ") gives it:
// a newline and two spaces per level after every opening bracket and
// comma and before every closing one, ": " after keys, and empty [] and
// {} kept closed. It trusts src to be Marshal's valid, whitespace-free
// output, so unlike json.Indent it does not re-validate what it copies;
// strings, escapes included, and literals are copied verbatim.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	newline := func() {
		dst = append(dst, '\n')
		for n := 2 * depth; n > 0; n -= len(indentSpaces) {
			dst = append(dst, indentSpaces[:min(n, len(indentSpaces))]...)
		}
	}
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			// The string ends at the first quote not escaped by an odd run
			// of backslashes.
			j := i + 1
			for {
				j += bytes.IndexByte(src[j:], '"')
				k := j
				for src[k-1] == '\\' {
					k--
				}
				if (j-k)%2 == 0 {
					break
				}
				j++
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				dst = append(dst, c, src[i+1])
				i++
				continue
			}
			dst = append(dst, c)
			depth++
			newline()
		case '}', ']':
			depth--
			newline()
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			newline()
		case ':':
			dst = append(dst, ':', ' ')
		default:
			// A number or literal runs to the next comma or closing
			// bracket.
			j := i + 1
			for j < len(src) && src[j] != ',' && src[j] != '}' && src[j] != ']' {
				j++
			}
			dst = append(dst, src[i:j]...)
			i = j - 1
		}
	}
	return dst
}

// indentSpaces is appendIndent's supply of indentation, eight levels at a
// time.
const indentSpaces = "                "
