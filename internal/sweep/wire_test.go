package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// The decoder refuses fields the schema lacks, at every level of the
// document: a summary or cell written by another schema (the removed
// weather axis, say) must fail to decode, not decode narrowed.
func TestDecodersRefuseUnknownFields(t *testing.T) {
	var buf bytes.Buffer
	if err := nonFiniteSummary().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if _, err := ReadSummary(strings.NewReader(doc)); err != nil {
		t.Fatalf("clean summary: %v", err)
	}
	for _, c := range []struct{ name, from, to string }{
		{"summary", `"fingerprint"`, `"schema": 2, "fingerprint"`},
		{"cell", `"index"`, `"weather": "dark-calm", "index"`},
		{"group", `"cells": 1`, `"probe_lifetime": "1h0m0s", "cells": 1`},
	} {
		widened := strings.Replace(doc, c.from, c.to, 1)
		if widened == doc {
			t.Fatalf("%s: %q not in the document", c.name, c.from)
		}
		if _, err := ReadSummary(strings.NewReader(widened)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s with an extra field: err = %v, want an unknown-field error", c.name, err)
		}
	}
}

// nonFiniteSummary is a stamped summary with a collected series and NaN
// metrics and stats: the parts of the wire format the export golden does
// not reach.
func nonFiniteSummary() *Summary {
	ser := trace.NewSeries("base-volts", "V")
	t0 := time.Date(2008, 8, 1, 0, 0, 0, 0, time.UTC)
	ser.Add(t0, 12.5)
	ser.Add(t0.Add(time.Hour), math.NaN())
	ser.Add(t0.Add(time.Hour), 12.25)
	return &Summary{
		Fingerprint: "0123456789abcdef",
		TotalCells:  2,
		Cells: []CellResult{{
			Cell:    Cell{Index: 1, Scenario: "synthetic", Seed: 1, Stations: 3, Override: "ov", Days: 1},
			Metrics: []Metric{{Name: "ok", Value: 1.5}, {Name: "nan", Value: math.NaN()}},
			Series:  []*trace.Series{ser},
		}},
		Groups: []Group{{
			Scenario: "synthetic", Stations: 3, Override: "ov", Days: 1, N: 1,
			Stats: []Stats{{Name: "nan", N: 1, Mean: math.NaN(), Stddev: 0, Min: math.NaN(), Max: 2}},
		}},
	}
}

// FuzzReadSummary feeds arbitrary bytes to the summary decoder. It must
// never panic, and whatever it accepts must be a fixed point after one
// re-encoding: encode, decode and encode again give identical bytes, so a
// shard file read back and re-written cannot drift. The re-encoding must
// also be byte for byte what json.MarshalIndent makes of the same
// document, the oracle for WriteJSON's direct appender.
func FuzzReadSummary(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "sweep.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	var buf bytes.Buffer
	if err := nonFiniteSummary().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// A series instant whose offset carries it past year 9999 in UTC: the
	// encoder would write a five-digit year the decoder cannot read back.
	f.Add([]byte(`{"cells":[{"index":0,"scenario":"s","seed":1,"days":1,` +
		`"series":[{"name":"a","points":[{"t":"9999-12-31T23:59:59-23:59","v":1}]}]}],"groups":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := ReadSummary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := sum.WriteJSON(&first); err != nil {
			t.Fatalf("re-encode of an accepted document: %v", err)
		}
		oracle, err := json.MarshalIndent(sum.document(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if oracle = append(oracle, '\n'); !bytes.Equal(first.Bytes(), oracle) {
			t.Fatalf("WriteJSON differs from MarshalIndent:\n--- WriteJSON\n%s\n--- MarshalIndent\n%s", first.Bytes(), oracle)
		}
		again, err := ReadSummary(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded document does not decode: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point:\n--- first\n%s\n--- second\n%s", first.Bytes(), second.Bytes())
		}
	})
}
