package trace

import (
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"repro/internal/simenv"
)

var t0 = time.Date(2009, 9, 22, 0, 0, 0, 0, time.UTC)

func TestSeriesAddAndPoints(t *testing.T) {
	s := NewSeries("volts", "V")
	s.Add(t0, 12.5)
	s.Add(t0.Add(time.Hour), 12.6)
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
	pts := s.Points()
	if pts[0].V != 12.5 || pts[1].V != 12.6 {
		t.Fatalf("points %+v", pts)
	}
}

func TestSeriesRejectsOutOfOrder(t *testing.T) {
	s := NewSeries("x", "")
	s.Add(t0.Add(time.Hour), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add did not panic")
		}
	}()
	s.Add(t0, 2)
}

func TestMinMax(t *testing.T) {
	s := NewSeries("x", "")
	if _, _, ok := s.MinMax(); ok {
		t.Fatal("empty MinMax ok")
	}
	s.Add(t0, 3)
	s.Add(t0.Add(time.Second), -1)
	s.Add(t0.Add(2*time.Second), 7)
	lo, hi, ok := s.MinMax()
	if !ok || lo != -1 || hi != 7 {
		t.Fatalf("minmax %v %v %v", lo, hi, ok)
	}
}

func TestWindow(t *testing.T) {
	s := NewSeries("x", "")
	for i := 0; i < 10; i++ {
		s.Add(t0.Add(time.Duration(i)*time.Hour), float64(i))
	}
	w := s.Window(t0.Add(2*time.Hour), t0.Add(5*time.Hour))
	if w.Len() != 4 {
		t.Fatalf("window len %d, want 4", w.Len())
	}
}

func TestSampleTicker(t *testing.T) {
	sim := simenv.NewAt(1, t0)
	v := 10.0
	s, tk := Sample(sim, time.Hour, "volts", "V", func(time.Time) float64 {
		v += 0.1
		return v
	})
	if err := sim.RunFor(5 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// Baseline at attach time plus one sample per elapsed hour.
	if s.Len() != 6 {
		t.Fatalf("sampled %d points in 5h, want 6 (baseline + 5)", s.Len())
	}
	tk.Stop()
	if err := sim.RunFor(5 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 6 {
		t.Fatal("sampler kept running after Stop")
	}
}

func TestSampleRecordsBaselineAtAttachTime(t *testing.T) {
	sim := simenv.NewAt(1, t0)
	s, _ := Sample(sim, time.Hour, "volts", "V", func(time.Time) float64 { return 12.5 })
	pts := s.Points()
	if len(pts) != 1 || !pts[0].T.Equal(t0) || pts[0].V != 12.5 {
		t.Fatalf("baseline sample = %+v, want one point at attach time", pts)
	}
}

func TestWriteCSV(t *testing.T) {
	s := NewSeries("volts", "V")
	s.Add(t0, 12.5)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "time,volts\n") || !strings.Contains(out, "12.5000") {
		t.Fatalf("csv: %q", out)
	}
}

func TestWriteCSVEscapesSeriesName(t *testing.T) {
	s := NewSeries(`volts,"raw"`, "V")
	s.Add(t0, 12.5)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(strings.NewReader(b.String()))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v\n%s", err, b.String())
	}
	if len(recs) != 2 || recs[0][1] != `volts,"raw"` {
		t.Fatalf("header field mangled: %q", recs[0])
	}
	if recs[1][1] != "12.5000" {
		t.Fatalf("value field = %q", recs[1][1])
	}
}

func TestASCIIChartRendersSeries(t *testing.T) {
	s := NewSeries("volts", "V")
	for i := 0; i < 48; i++ {
		s.Add(t0.Add(time.Duration(i)*time.Hour), 12+float64(i%12)/10)
	}
	out := ASCIIChart(60, 10, s)
	if !strings.Contains(out, "*") {
		t.Fatal("chart has no data glyphs")
	}
	if !strings.Contains(out, "volts") {
		t.Fatal("chart missing legend")
	}
	if len(strings.Split(out, "\n")) < 12 {
		t.Fatal("chart too short")
	}
}

func TestASCIIChartEmpty(t *testing.T) {
	if out := ASCIIChart(40, 6, NewSeries("x", "")); !strings.Contains(out, "no data") {
		t.Fatalf("empty chart: %q", out)
	}
}

func TestASCIIChartMultiSeries(t *testing.T) {
	a := NewSeries("a", "")
	b := NewSeries("b", "")
	for i := 0; i < 10; i++ {
		ts := t0.Add(time.Duration(i) * time.Hour)
		a.Add(ts, float64(i))
		b.Add(ts, float64(10-i))
	}
	out := ASCIIChart(40, 8, a, b)
	if !strings.Contains(out, "+") || !strings.Contains(out, "*") {
		t.Fatal("multi-series chart missing glyphs")
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"Device", "Power"}, [][]string{
		{"Gumstix", "900 mW"},
		{"GPRS Modem", "2640 mW"},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "Device") || !strings.Contains(lines[3], "2640") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestTableClampsOversizedRows(t *testing.T) {
	out := Table([]string{"A", "B"}, [][]string{
		{"1", "2", "3", "4"},
		{"5"},
	})
	if !strings.Contains(out, "(+2 cells clipped)") {
		t.Fatalf("oversized row not reported:\n%s", out)
	}
	if strings.Contains(out, "3") || strings.Contains(out, "4") {
		t.Fatalf("clipped cells leaked into output:\n%s", out)
	}
}
