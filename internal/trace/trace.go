// Package trace captures and renders time series from a running
// simulation: battery voltage for Fig 5, probe conductivity for Fig 6,
// power-state steps, spool depth — anything a figure needs.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/simenv"
)

// Point is one sample.
type Point struct {
	// T is the sample time.
	T time.Time
	// V is the value.
	V float64
}

// Series is a named time series.
type Series struct {
	// Name labels the series in charts and CSV.
	Name string
	// Unit is appended to axis labels.
	Unit string

	points []Point
}

// NewSeries returns an empty series.
func NewSeries(name, unit string) *Series {
	return &Series{Name: name, Unit: unit}
}

// Add appends a sample. Samples must arrive in nondecreasing time order.
//
//glacvet:hotpath
func (s *Series) Add(t time.Time, v float64) {
	if n := len(s.points); n > 0 && t.Before(s.points[n-1].T) {
		//glacvet:allow hotpath the Sprintf is on the panic path only; a well-ordered run never reaches it
		panic(fmt.Sprintf("trace: out-of-order sample for %s: %v after %v", s.Name, t, s.points[n-1].T))
	}
	s.points = append(s.points, Point{T: t, V: v})
}

// Reserve grows the series' capacity to hold at least n total samples.
// Callers that know the observation horizon (campaigns sampling every
// interval for a fixed number of days) use this to avoid the append
// doubling-and-copying churn on long runs.
func (s *Series) Reserve(n int) {
	if n <= cap(s.points) {
		return
	}
	pts := make([]Point, len(s.points), n)
	copy(pts, s.points)
	s.points = pts
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.points) }

// Points returns a copy of the samples.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// PointAt returns the i-th sample without copying the whole series; it is
// the export encoders' iteration primitive.
//
//glacvet:hotpath
func (s *Series) PointAt(i int) Point { return s.points[i] }

// MinMax returns the value range; ok is false for an empty series.
func (s *Series) MinMax() (lo, hi float64, ok bool) {
	if len(s.points) == 0 {
		return 0, 0, false
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, p := range s.points {
		lo = math.Min(lo, p.V)
		hi = math.Max(hi, p.V)
	}
	return lo, hi, true
}

// Window returns the sub-series within [from, to].
func (s *Series) Window(from, to time.Time) *Series {
	out := NewSeries(s.Name, s.Unit)
	for _, p := range s.points {
		if !p.T.Before(from) && !p.T.After(to) {
			out.points = append(out.points, p)
		}
	}
	return out
}

// Sample attaches a periodic sampler to the simulator, recording fn every
// interval into the returned series. A baseline sample is taken at attach
// time, so the series always starts at t=0 of the observation window —
// every figure wants the initial value, not the state one interval in.
// Stop the returned ticker to end sampling.
func Sample(sim *simenv.Simulator, interval time.Duration, name, unit string,
	fn func(now time.Time) float64) (*Series, *simenv.Ticker) {
	return attachSampler(sim, interval, 0, name, unit, fn)
}

// SampleFor is Sample with a known observation horizon: the series'
// capacity is preallocated for horizon/interval samples, so a campaign-long
// trace never reallocates while the simulation runs.
//
//glacvet:hotpath
func SampleFor(sim *simenv.Simulator, interval, horizon time.Duration, name, unit string,
	fn func(now time.Time) float64) (*Series, *simenv.Ticker) {
	return attachSampler(sim, interval, horizon, name, unit, fn)
}

func attachSampler(sim *simenv.Simulator, interval, horizon time.Duration, name, unit string,
	fn func(now time.Time) float64) (*Series, *simenv.Ticker) {
	s := NewSeries(name, unit)
	if horizon > 0 && interval > 0 {
		// +2: the attach-time baseline plus the fencepost sample.
		s.Reserve(int(horizon/interval) + 2)
	}
	s.Add(sim.Now(), fn(sim.Now()))
	tk := sim.Every(sim.Now().Add(interval), interval, "trace."+name, func(now time.Time) {
		s.Add(now, fn(now))
	})
	return s, tk
}

// WriteCSV emits "time,value" rows (RFC 3339 timestamps). The header and
// values go through encoding/csv, so a series name containing commas,
// quotes or newlines stays one parseable field.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", s.Name}); err != nil {
		return err
	}
	for _, p := range s.points {
		if err := cw.Write([]string{p.T.UTC().Format(time.RFC3339), strconv.FormatFloat(p.V, 'f', 4, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ASCIIChart renders one or more series into a fixed-size character chart —
// enough to eyeball the Fig 5 diurnal curve in a terminal. Series are
// overlaid with distinct glyphs.
func ASCIIChart(width, height int, series ...*Series) string {
	if width < 16 || height < 4 {
		panic("trace: chart too small")
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#'}

	var t0, t1 time.Time
	lo, hi := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		if s.Len() == 0 {
			continue
		}
		pts := s.points
		if !any || pts[0].T.Before(t0) {
			t0 = pts[0].T
		}
		if !any || pts[len(pts)-1].T.After(t1) {
			t1 = pts[len(pts)-1].T
		}
		slo, shi, _ := s.MinMax()
		lo = math.Min(lo, slo)
		hi = math.Max(hi, shi)
		any = true
	}
	if !any {
		return "(no data)\n"
	}
	if hi == lo {
		hi = lo + 1
	}
	span := t1.Sub(t0)
	if span <= 0 {
		span = time.Second
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for _, p := range s.points {
			x := int(float64(width-1) * float64(p.T.Sub(t0)) / float64(span))
			y := int(float64(height-1) * (p.V - lo) / (hi - lo))
			row := height - 1 - y
			grid[row][x] = g
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%8.2f ┤", hi)
	b.Write(grid[0])
	b.WriteByte('\n')
	for i := 1; i < height-1; i++ {
		b.WriteString("         │")
		b.Write(grid[i])
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%8.2f ┤", lo)
	b.Write(grid[height-1])
	b.WriteByte('\n')
	b.WriteString("          " + t0.UTC().Format("2006-01-02 15:04") +
		strings.Repeat(" ", max(1, width-34)) + t1.UTC().Format("2006-01-02 15:04") + "\n")
	for si, s := range series {
		fmt.Fprintf(&b, "          %c %s", glyphs[si%len(glyphs)], s.Name)
		if s.Unit != "" {
			fmt.Fprintf(&b, " (%s)", s.Unit)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table renders rows of labelled values as an aligned ASCII table; used by
// the report tool for Table I/II style output. A row wider than the header
// is clamped to the header width, with the dropped cell count reported in
// its last kept cell instead of panicking the whole render.
func Table(header []string, rows [][]string) string {
	clamped := make([][]string, len(rows))
	for ri, r := range rows {
		if len(r) <= len(header) {
			clamped[ri] = r
			continue
		}
		c := append([]string(nil), r[:len(header)]...)
		if len(c) > 0 {
			c[len(c)-1] += fmt.Sprintf(" (+%d cells clipped)", len(r)-len(header))
		}
		clamped[ri] = c
	}
	rows = clamped
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c + strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
