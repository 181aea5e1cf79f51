// The wire format: ReadSummary decodes the JSON document WriteJSON emits
// back into a Summary, losslessly enough that decode -> re-encode is
// byte-identical and a decoded shard merges exactly like the in-memory
// partial it came from. JSON nulls (the encoding of non-finite floats)
// decode to NaN, which the reducer excludes and the encoders turn back
// into null, closing the round trip. The decoder refuses fields the
// schema does not have: a document from another schema must fail loudly,
// not decode into a narrower summary than the one it describes.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/trace"
)

// ReadSummary decodes one WriteJSON document — a full summary or a shard's
// partial summary — from r.
func ReadSummary(r io.Reader) (*Summary, error) {
	var doc summaryJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("sweep: decode summary: %w", err)
	}
	sum := &Summary{Fingerprint: doc.Fingerprint, TotalCells: doc.TotalCells}
	for i, cj := range doc.Cells {
		cr, err := cellFromJSON(cj)
		if err != nil {
			return nil, fmt.Errorf("sweep: decode cell %d: %w", i, err)
		}
		sum.Cells = append(sum.Cells, cr)
	}
	for _, gj := range doc.Groups {
		gr := Group{
			Scenario: gj.Scenario, Stations: gj.Stations, Probes: gj.Probes,
			Override: gj.Override, Days: gj.Days, N: gj.N, Errors: gj.Errors,
		}
		for _, st := range gj.Stats {
			gr.Stats = append(gr.Stats, Stats{
				Name: st.Name, N: st.N,
				Mean: fromFinite(st.Mean), Stddev: fromFinite(st.Stddev),
				CI95: fromFinite(st.CI95),
				Min:  fromFinite(st.Min), Max: fromFinite(st.Max),
			})
		}
		sum.Groups = append(sum.Groups, gr)
	}
	return sum, nil
}

// ReadSummaryFile decodes one WriteJSON document from a file.
func ReadSummaryFile(path string) (*Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	defer func() { _ = f.Close() }()
	sum, err := ReadSummary(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sum, nil
}

// cellFromJSON decodes one cell wire document back into a CellResult —
// the inverse of appendCell.
func cellFromJSON(cj cellJSON) (CellResult, error) {
	cr := CellResult{
		Cell: Cell{
			Index: cj.Index, Scenario: cj.Scenario, Seed: cj.Seed,
			Stations: cj.Stations, Probes: cj.Probes,
			Override: cj.Override, Days: cj.Days,
		},
		Err: cj.Err,
	}
	if len(cj.Metrics) > 0 {
		cr.Metrics = make([]Metric, 0, len(cj.Metrics))
		for _, mj := range cj.Metrics {
			cr.Metrics = append(cr.Metrics, Metric{Name: mj.Name, Value: fromFinite(mj.Value)})
		}
	}
	for _, sj := range cj.Series {
		ser := trace.NewSeries(sj.Name, sj.Unit)
		ser.Reserve(len(sj.Points))
		var prev time.Time
		for k, pj := range sj.Points {
			t, err := time.Parse(time.RFC3339, pj.T)
			if err != nil {
				return CellResult{}, fmt.Errorf("series %q point %d: %w", sj.Name, k, err)
			}
			// The encoder writes UTC, and an offset can carry a year-9999
			// or year-0000 instant out of the four-digit years RFC 3339
			// (and so this decoder) accepts.
			if y := t.UTC().Year(); y < 0 || y > 9999 {
				return CellResult{}, fmt.Errorf("series %q point %d: %s is outside years 0000-9999 in UTC", sj.Name, k, pj.T)
			}
			// Series.Add panics on non-monotonic samples; a corrupted
			// shard file must be a decode error, not a crash.
			if k > 0 && t.Before(prev) {
				return CellResult{}, fmt.Errorf("series %q point %d: timestamp %s before %s",
					sj.Name, k, pj.T, prev.Format(time.RFC3339))
			}
			prev = t
			ser.Add(t, fromFinite(pj.V))
		}
		cr.Series = append(cr.Series, ser)
	}
	return cr, nil
}

// fromFinite inverts finite: a JSON null (non-finite on the way out)
// decodes to NaN, which every fold and encoder already guards.
func fromFinite(v *float64) float64 {
	if v == nil {
		return math.NaN()
	}
	return *v
}
