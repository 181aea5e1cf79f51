// The entry payload: a compact binary encoding of one executed cell,
// owned by the cache because the cache is its only reader. Every value is
// kept exactly — each float64 as its 8 IEEE-754 bytes, so NaN payloads, −0
// and ±Inf survive; each sample time as UTC seconds plus nanoseconds — so
// a served cell is the cell that was stored, and every artifact built from
// it is the artifact its simulation would have built.
//
// Layout, in order (varint and uvarint are encoding/binary's, and must be
// minimal; a string is a uvarint byte length and the bytes; a float is 8
// little-endian bytes of math.Float64bits; a list count is a uvarint of
// n+1, with 0 for a nil list):
//
//	cell      varint index, string scenario, varint seed, varint stations,
//	          varint probes, string override, varint days, string err
//	metrics   list count, then per metric: string name, float value
//	series    list count of the non-nil series, then per series:
//	          string name, string unit, uvarint points, then per point:
//	          seconds, uvarint nanoseconds (< 1e9), float value
//
// A series' first point writes its Unix seconds as a varint, each later
// point the uvarint difference from the point before. The decoder refuses
// anything the encoder would not have written, so decode∘encode is the
// identity and every accepted payload re-encodes to itself.
package rescache

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/sweep"
	"repro/internal/trace"
)

// The fewest payload bytes one list element can take, which bounds every
// count before anything is sized by it.
const (
	minMetricBytes = 1 + 8     // empty name, value
	minSeriesBytes = 1 + 1 + 1 // empty name, empty unit, no points
	minPointBytes  = 1 + 1 + 8 // seconds, nanoseconds, value
)

// appendCell appends the payload encoding of cr to dst.
func appendCell(dst []byte, cr sweep.CellResult) []byte {
	c := cr.Cell
	dst = binary.AppendVarint(dst, int64(c.Index))
	dst = appendString(dst, c.Scenario)
	dst = binary.AppendVarint(dst, c.Seed)
	dst = binary.AppendVarint(dst, int64(c.Stations))
	dst = binary.AppendVarint(dst, int64(c.Probes))
	dst = appendString(dst, c.Override)
	dst = binary.AppendVarint(dst, int64(c.Days))
	dst = appendString(dst, cr.Err)

	dst = appendCount(dst, len(cr.Metrics), cr.Metrics == nil)
	for _, m := range cr.Metrics {
		dst = appendString(dst, m.Name)
		dst = appendFloat(dst, m.Value)
	}

	// A nil series entry holds no samples and is skipped, as the summary
	// encoder skips it.
	live := 0
	for _, ser := range cr.Series {
		if ser != nil {
			live++
		}
	}
	dst = appendCount(dst, live, cr.Series == nil)
	for _, ser := range cr.Series {
		if ser == nil {
			continue
		}
		dst = appendString(dst, ser.Name)
		dst = appendString(dst, ser.Unit)
		n := ser.Len()
		dst = binary.AppendUvarint(dst, uint64(n))
		var prev int64
		for i := 0; i < n; i++ {
			p := ser.PointAt(i)
			sec := p.T.Unix()
			if i == 0 {
				dst = binary.AppendVarint(dst, sec)
			} else {
				dst = binary.AppendUvarint(dst, uint64(sec-prev))
			}
			prev = sec
			dst = binary.AppendUvarint(dst, uint64(p.T.Nanosecond()))
			dst = appendFloat(dst, p.V)
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendCount(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

// decodeCell decodes one appendCell payload. Every malformed payload is an
// error, never a panic: a truncated or over-long value, a non-minimal
// varint, a count the remaining bytes cannot hold (checked before anything
// is sized by it), a time the encoder would not write, a sample earlier
// than the one before it, and bytes after the last series.
func decodeCell(payload []byte) (sweep.CellResult, error) {
	r := payloadReader{b: payload}
	var cr sweep.CellResult
	c := &cr.Cell
	c.Index = r.int()
	c.Scenario = r.string()
	c.Seed = r.varint()
	c.Stations = r.int()
	c.Probes = r.int()
	c.Override = r.string()
	c.Days = r.int()
	cr.Err = r.string()

	if n, ok := r.count(minMetricBytes); ok {
		cr.Metrics = make([]sweep.Metric, n)
		for i := range cr.Metrics {
			cr.Metrics[i] = sweep.Metric{Name: r.string(), Value: r.float()}
		}
	}
	if n, ok := r.count(minSeriesBytes); ok {
		cr.Series = make([]*trace.Series, n)
		for i := range cr.Series {
			ser := trace.NewSeries(r.string(), r.string())
			r.points(ser)
			cr.Series[i] = ser
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return sweep.CellResult{}, fmt.Errorf("rescache: decode cell: %w", r.err)
	}
	return cr, nil
}

// payloadReader consumes a payload front to back. The first failure
// sticks: it empties the buffer, so every later read fails fast and
// returns a zero value, and decodeCell reports that first error.
type payloadReader struct {
	b   []byte
	err error
}

func (r *payloadReader) fail(format string, a ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, a...)
	}
	r.b = nil
}

func (r *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overflowing varint")
		return 0
	}
	if n > 1 && r.b[n-1] == 0 {
		r.fail("non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varint is binary.Varint's zig-zag decoding over the minimal uvarint.
func (r *payloadReader) varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *payloadReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

func (r *payloadReader) string() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("string of %d bytes with %d left", n, len(r.b))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *payloadReader) float() float64 {
	if len(r.b) < 8 {
		r.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// count reads a list count; ok is false for a nil list and on failure. A
// count of more elements than the remaining bytes could hold at minBytes
// each fails before the caller allocates for it.
func (r *payloadReader) count(minBytes int) (n int, ok bool) {
	c := r.uvarint()
	if c == 0 {
		return 0, false
	}
	if c-1 > uint64(len(r.b)/minBytes) {
		r.fail("count %d exceeds the %d bytes left", c-1, len(r.b))
		return 0, false
	}
	return int(c - 1), true
}

// points reads a series' samples into ser, refusing any time the encoder
// would not write (nanoseconds past a second, a seconds delta that
// overflows) and any sample earlier than the one before it, which
// Series.Add would panic on.
func (r *payloadReader) points(ser *trace.Series) {
	n := r.uvarint()
	if n > uint64(len(r.b)/minPointBytes) {
		r.fail("series %q: %d points exceed the %d bytes left", ser.Name, n, len(r.b))
		return
	}
	ser.Reserve(int(n))
	var sec int64
	var prev time.Time
	for i := range int(n) {
		if i == 0 {
			sec = r.varint()
		} else {
			d := r.uvarint()
			next := sec + int64(d)
			if d > math.MaxInt64 || next < sec {
				r.fail("series %q point %d: seconds overflow", ser.Name, i)
				return
			}
			sec = next
		}
		nsec := r.uvarint()
		v := r.float()
		if r.err != nil {
			return
		}
		if nsec >= uint64(time.Second) {
			r.fail("series %q point %d: %d nanoseconds", ser.Name, i, nsec)
			return
		}
		t := time.Unix(sec, int64(nsec)).UTC()
		if i > 0 && t.Before(prev) {
			r.fail("series %q point %d: %s before %s", ser.Name, i,
				t.Format(time.RFC3339Nano), prev.Format(time.RFC3339Nano))
			return
		}
		prev = t
		ser.Add(t, v)
	}
}
