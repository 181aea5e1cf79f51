package rescache

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/trace"
)

// series builds a series from its points.
func series(name, unit string, pts ...trace.Point) *trace.Series {
	s := trace.NewSeries(name, unit)
	for _, p := range pts {
		s.Add(p.T, p.V)
	}
	return s
}

// sameBits reports whether two float64s are the same bit pattern, so NaN
// payloads and the sign of zero count.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameCell compares two cells exactly: identity, nil-ness of the metric
// and series lists, names, every float's bits and every sample's instant
// and location.
func sameCell(t *testing.T, got, want sweep.CellResult) {
	t.Helper()
	if got.Cell != want.Cell || got.Err != want.Err {
		t.Fatalf("identity %+v err %q, want %+v err %q", got.Cell, got.Err, want.Cell, want.Err)
	}
	if (got.Metrics == nil) != (want.Metrics == nil) || len(got.Metrics) != len(want.Metrics) {
		t.Fatalf("metrics %#v, want %#v", got.Metrics, want.Metrics)
	}
	for i, m := range want.Metrics {
		if g := got.Metrics[i]; g.Name != m.Name || !sameBits(g.Value, m.Value) {
			t.Fatalf("metric %d = %q %x, want %q %x", i, g.Name, math.Float64bits(g.Value), m.Name, math.Float64bits(m.Value))
		}
	}
	if (got.Series == nil) != (want.Series == nil) || len(got.Series) != len(want.Series) {
		t.Fatalf("%d series (nil %v), want %d (nil %v)", len(got.Series), got.Series == nil, len(want.Series), want.Series == nil)
	}
	for i, ws := range want.Series {
		gs := got.Series[i]
		if gs.Name != ws.Name || gs.Unit != ws.Unit || gs.Len() != ws.Len() {
			t.Fatalf("series %d = %q %q %d points, want %q %q %d", i, gs.Name, gs.Unit, gs.Len(), ws.Name, ws.Unit, ws.Len())
		}
		for k := range ws.Len() {
			g, w := gs.PointAt(k), ws.PointAt(k)
			if !reflect.DeepEqual(g.T, w.T) || !sameBits(g.V, w.V) {
				t.Fatalf("series %d point %d = %v %x, want %v %x", i, k, g.T, math.Float64bits(g.V), w.T, math.Float64bits(w.V))
			}
		}
	}
}

// roundTripCells are the payload round-trip table: every value the
// encoding must carry exactly.
func roundTripCells() []struct {
	name string
	cell sweep.CellResult
	want sweep.CellResult // zero: the cell itself
} {
	t0 := time.Date(2008, 8, 1, 0, 0, 0, 0, time.UTC)
	id := sweep.Cell{Index: 7, Scenario: "dual-base", Seed: -3, Stations: 8, Probes: 2, Override: "ov", Days: 4}
	nanPayload := math.Float64frombits(0x7ff8_dead_beef_0001)
	negZero := math.Copysign(0, -1)
	empty := trace.NewSeries("", "")
	return []struct {
		name string
		cell sweep.CellResult
		want sweep.CellResult
	}{
		{name: "identity only", cell: sweep.CellResult{Cell: id}},
		{name: "zero cell", cell: sweep.CellResult{}},
		{name: "extreme integers", cell: sweep.CellResult{Cell: sweep.Cell{
			Index: math.MaxInt, Seed: math.MinInt64, Stations: math.MinInt, Probes: -1, Days: math.MaxInt}}},
		{name: "error text", cell: sweep.CellResult{Cell: id, Err: "hook exploded"}},
		{name: "special floats", cell: sweep.CellResult{Cell: id, Metrics: []sweep.Metric{
			{Name: "nan", Value: math.NaN()}, {Name: "nan-payload", Value: nanPayload},
			{Name: "+inf", Value: math.Inf(1)}, {Name: "-inf", Value: math.Inf(-1)},
			{Name: "-0", Value: negZero}, {Name: "+0", Value: 0},
			{Name: "tiny", Value: math.SmallestNonzeroFloat64}, {Name: "max", Value: math.MaxFloat64},
		}}},
		{name: "empty metrics", cell: sweep.CellResult{Cell: id, Metrics: []sweep.Metric{}}},
		{name: "empty series list", cell: sweep.CellResult{Cell: id, Series: []*trace.Series{}}},
		{name: "empty series", cell: sweep.CellResult{Cell: id, Series: []*trace.Series{empty}}},
		{
			name: "nil series entry skipped",
			cell: sweep.CellResult{Cell: id, Series: []*trace.Series{nil, series("v", "V", trace.Point{T: t0, V: 1}), nil}},
			want: sweep.CellResult{Cell: id, Series: []*trace.Series{series("v", "V", trace.Point{T: t0, V: 1})}},
		},
		{name: "sub-second and repeated times", cell: sweep.CellResult{Cell: id, Series: []*trace.Series{series("v", "V",
			trace.Point{T: t0.Add(time.Nanosecond), V: 1},
			trace.Point{T: t0.Add(time.Nanosecond), V: nanPayload},
			trace.Point{T: t0.Add(999_999_999 * time.Nanosecond), V: negZero},
			trace.Point{T: t0.Add(time.Second), V: math.Inf(-1)},
			trace.Point{T: t0.Add(30 * time.Minute), V: 12.5},
		)}}},
		{name: "pre-1970 times", cell: sweep.CellResult{Cell: id, Series: []*trace.Series{series("old", "",
			trace.Point{T: time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC), V: 1},
			trace.Point{T: time.Date(1969, 12, 31, 23, 59, 59, 500_000_000, time.UTC), V: 2},
			trace.Point{T: time.Unix(0, 0).UTC(), V: 3},
			trace.Point{T: time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC), V: 4},
			trace.Point{T: time.Date(12345, 1, 1, 0, 0, 0, 0, time.UTC), V: 5},
		)}}},
		{name: "non-ASCII names", cell: sweep.CellResult{
			Cell:    sweep.Cell{Index: 1, Scenario: "glaciär-Skálafellsjökull", Override: "büro ☃", Days: 1},
			Metrics: []sweep.Metric{{Name: "Δt µs", Value: 1.5}, {Name: "\x00\xff not utf-8", Value: 2}},
			Series:  []*trace.Series{series("Spannung ⚡", "°C", trace.Point{T: t0, V: 0.25})},
		}},
	}
}

// decode∘encode is the identity on cells: every row decodes to exactly
// the cell it encoded (or, for a nil series entry, the cell without it),
// and the payload it decodes from re-encodes to itself.
func TestCellRoundTripIsExact(t *testing.T) {
	for _, tc := range roundTripCells() {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.want
			if reflect.DeepEqual(want, sweep.CellResult{}) {
				want = tc.cell
			}
			payload := appendCell(nil, tc.cell)
			got, err := decodeCell(payload)
			if err != nil {
				t.Fatal(err)
			}
			sameCell(t, got, want)
			if again := appendCell(nil, got); !bytes.Equal(again, payload) {
				t.Fatalf("re-encoded payload differs:\n%x\n%x", again, payload)
			}
		})
	}
}

// Summary artifacts built from decoded cells are byte for byte the ones
// built from the cells as simulated: the cell CSV, the group CSV, the
// JSON document and each series' CSV.
func TestDecodedCellsBuildTheSameArtifacts(t *testing.T) {
	var orig, decoded []sweep.CellResult
	for i, tc := range roundTripCells() {
		cr := tc.cell
		cr.Cell.Index = i
		if cr.Cell.Scenario == "" {
			cr.Cell.Scenario = "synthetic"
		}
		orig = append(orig, cr)
		got, err := decodeCell(appendCell(nil, cr))
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, got)
	}
	artifacts := func(cells []sweep.CellResult) []byte {
		sum := sweep.Reduce(cells)
		sum.Fingerprint, sum.TotalCells = "0123456789abcdef", len(cells)
		var buf bytes.Buffer
		if err := sum.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if err := sum.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		for _, cr := range cells {
			for _, ser := range cr.Series {
				if ser == nil {
					continue
				}
				if err := ser.WriteCSV(&buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		return buf.Bytes()
	}
	if a, b := artifacts(orig), artifacts(decoded); !bytes.Equal(a, b) {
		t.Fatalf("artifacts from decoded cells differ:\n--- simulated\n%s\n--- decoded\n%s", a, b)
	}
}

// Each row is a payload no encoder writes; decodeCell must refuse it with
// an error, never a panic or a cell.
func TestDecodeCellRefusesMalformedPayloads(t *testing.T) {
	t0 := time.Date(2008, 8, 1, 0, 0, 0, 0, time.UTC)
	good := sweep.CellResult{
		Cell:    sweep.Cell{Index: 1, Scenario: "dual-base", Seed: 2, Days: 4},
		Metrics: []sweep.Metric{{Name: "runs", Value: 3}},
		Series:  []*trace.Series{series("v", "V", trace.Point{T: t0, V: 1}, trace.Point{T: t0.Add(time.Hour), V: 2})},
	}
	valid := appendCell(nil, good)
	// ident is the payload's cell identity, and head that plus the
	// metrics, so rows can write their own lists after them.
	ident := appendCell(nil, sweep.CellResult{Cell: good.Cell})
	ident = ident[:len(ident)-2] // the nil metric and series lists
	head := appendCell(nil, sweep.CellResult{Cell: good.Cell, Metrics: good.Metrics})
	head = head[:len(head)-1] // the nil series list
	withSeries := func(b ...[]byte) []byte {
		out := append([]byte(nil), head...)
		out = append(out, 2) // one series
		out = append(out, 1, 'v', 0)
		for _, part := range b {
			out = append(out, part...)
		}
		return out
	}
	f := func(v float64) []byte { return appendFloat(nil, v) }
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	sv := func(v int64) []byte { return binary.AppendVarint(nil, v) }
	cat := func(b ...[]byte) []byte { return bytes.Join(b, nil) }
	if _, err := decodeCell(withSeries(uv(1), sv(t0.Unix()), uv(0), f(1))); err != nil {
		t.Fatalf("the rows' well-formed base was refused: %v", err)
	}

	rows := []struct {
		name    string
		payload []byte
		errText string
	}{
		{"empty", nil, "varint"},
		{"trailing bytes", append(append([]byte(nil), valid...), 0), "trailing"},
		{"non-minimal varint", append([]byte{0x82, 0x00}, valid[1:]...), "non-minimal"},
		{"overflowing varint", bytes.Repeat([]byte{0xff}, 11), "varint"},
		{"string past the end", []byte{0x02, 0x7f, 'a'}, "string of 127 bytes"},
		{"hostile metric count", cat(ident, uv(1<<62)), "exceeds"},
		{"hostile series count", cat(head, uv(1<<40)), "exceeds"},
		{"hostile point count", withSeries(uv(1 << 50)), "points exceed"},
		{"nanoseconds past a second", withSeries(uv(1), sv(t0.Unix()), uv(1e9), f(1)), "nanoseconds"},
		{"decreasing time", withSeries(uv(2), sv(t0.Unix()), uv(5), f(1), uv(0), uv(4), f(2)), "before"},
		{"seconds delta past int64", withSeries(uv(2), sv(math.MaxInt64-1), uv(0), f(1), uv(2), uv(0), f(2)), "overflow"},
		{"delta wider than int64", withSeries(uv(2), sv(0), uv(0), f(1), uv(1<<63), uv(0), f(2)), "overflow"},
		{"truncated float", withSeries(uv(1), sv(t0.Unix()), uv(0), f(1)[:7]), "truncated float"},
	}
	// Every strict prefix of a valid payload is truncated somewhere.
	for n := range len(valid) {
		rows = append(rows, struct {
			name    string
			payload []byte
			errText string
		}{"prefix", valid[:n], ""})
	}
	for _, tc := range rows {
		cr, err := decodeCell(tc.payload)
		if err == nil {
			t.Errorf("%s (%x): decoded to %+v, want an error", tc.name, tc.payload, cr)
			continue
		}
		if !strings.Contains(err.Error(), tc.errText) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.errText)
		}
	}
}

// decodeCell sizes nothing by a count before checking it against the
// bytes left: a payload claiming 2^62 metrics, series or points costs what
// its few real bytes cost.
func TestHostileCountDrivesNoAllocation(t *testing.T) {
	head := appendCell(nil, sweep.CellResult{Cell: sweep.Cell{Index: 1, Scenario: "dual-base", Days: 4}})
	head = head[:len(head)-2] // drop the nil metric and series lists
	hostile := [][]byte{
		binary.AppendUvarint(append([]byte(nil), head...), 1<<62),
		binary.AppendUvarint(append(append([]byte(nil), head...), 0), 1<<62),
		binary.AppendUvarint(append(append([]byte(nil), head...), 0, 2, 0, 0), 1<<62),
	}
	for _, p := range hostile {
		if _, err := decodeCell(p); err == nil || !strings.Contains(err.Error(), "exceed") {
			t.Fatalf("payload %x: err = %v, want a count refusal", p, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 100 {
		for _, p := range hostile {
			if _, err := decodeCell(p); err == nil {
				t.Fatal("decodeCell accepted a hostile count")
			}
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(100*len(hostile)); per > 4<<10 {
		t.Fatalf("decodeCell allocated %d bytes per hostile payload, want under 4 KiB", per)
	}
}

// benchCells are cache entries shaped like the campaign's: an f5 voltage
// cell (the standard metric block plus a 4-day, 30-minute series of 193
// points) and an x9 fleet cell (the standard block plus one observed
// metric, no series).
func benchCells() map[string]sweep.CellResult {
	std := []string{"runs", "completed-runs", "watchdog-trips", "comms-failures", "specials",
		"recoveries", "probes-alive", "probe-readings", "mb-to-server", "uploads"}
	metrics := func(extra ...string) []sweep.Metric {
		var ms []sweep.Metric
		for i, name := range append(std, extra...) {
			ms = append(ms, sweep.Metric{Name: name, Value: float64(i) * 1.25})
		}
		return ms
	}
	volts := trace.NewSeries("base-volts", "V")
	t0 := time.Date(2008, 9, 1, 0, 0, 0, 0, time.UTC)
	for i := range 193 {
		volts.Add(t0.Add(time.Duration(i)*30*time.Minute), 12+math.Sin(float64(i)/7))
	}
	return map[string]sweep.CellResult{
		"f5": {Cell: sweep.Cell{Index: 5, Scenario: "as-deployed-2008", Seed: 47, Days: 4},
			Metrics: metrics(), Series: []*trace.Series{volts}},
		"x9": {Cell: sweep.Cell{Index: 9, Scenario: "fleet-N", Seed: 51, Stations: 8, Override: "base-01-dead", Days: 30},
			Metrics: metrics("healthy-station-days-held")},
	}
}

// BenchmarkGet is one verified cache hit: read, frame check, digest,
// decode and identity check.
func BenchmarkGet(b *testing.B) {
	for _, shape := range []string{"f5", "x9"} {
		b.Run(shape, func(b *testing.B) {
			cr := benchCells()[shape]
			c, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			c.Put("deadbeefdeadbeef", cr)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, ok := c.Get("deadbeefdeadbeef", cr.Cell); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}
