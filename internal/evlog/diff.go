// The differ: compare two event logs record-for-record and localize the
// first divergence with surrounding context — the tool for "these two
// runs should have been identical; where did they part ways?".
package evlog

import (
	"fmt"
	"strings"
)

// Diff compares two logs and returns the first divergence, A's record as
// Want and B's as Got, or nil when every record matches (same count,
// same times, same names). Headers may differ either way; a non-nil
// divergence notes it.
func Diff(a, b *Log) *Divergence {
	note := headerNote(a.header, b.header)
	n := min(a.Len(), b.Len())
	for i := 0; i < n; i++ {
		ra, rb := a.Record(i), b.Record(i)
		if ra.Name != rb.Name || ra.AtSec != rb.AtSec || ra.AtNsec != rb.AtNsec {
			return &Divergence{Index: uint64(i), Want: ra, HaveWant: true, Got: rb, HaveGot: true, headerNote: note}
		}
	}
	switch {
	case a.Len() > n:
		return &Divergence{Index: uint64(n), Want: a.Record(n), HaveWant: true, headerNote: note}
	case b.Len() > n:
		return &Divergence{Index: uint64(n), Got: b.Record(n), HaveGot: true, headerNote: note}
	}
	return nil
}

// headerNote renders the run-identity fields two compared headers
// disagree on, or "" when they describe the same run.
func headerNote(a, b Header) string {
	var parts []string
	if a.Scenario != b.Scenario {
		parts = append(parts, fmt.Sprintf("scenario %q vs %q", a.Scenario, b.Scenario))
	}
	if a.Seed != b.Seed {
		parts = append(parts, fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed))
	}
	if a.Days != b.Days {
		parts = append(parts, fmt.Sprintf("days %d vs %d", a.Days, b.Days))
	}
	if a.Stations != b.Stations {
		parts = append(parts, fmt.Sprintf("stations %d vs %d", a.Stations, b.Stations))
	}
	if a.Probes != b.Probes {
		parts = append(parts, fmt.Sprintf("probes %d vs %d", a.Probes, b.Probes))
	}
	if a.Fingerprint != b.Fingerprint {
		parts = append(parts, fmt.Sprintf("fingerprint %q vs %q", a.Fingerprint, b.Fingerprint))
	}
	if len(parts) == 0 {
		return ""
	}
	return "the logs describe different runs: " + strings.Join(parts, ", ")
}

// diffContext is how many matching records the report shows on each
// side of the divergence.
const diffContext = 3

// Report renders a divergence Diff found between logs a and b, with
// surrounding context from both, for the CLI and CI to print.
func (d *Divergence) Report(a, b *Log) string {
	var sb strings.Builder
	if d.headerNote != "" {
		fmt.Fprintf(&sb, "note: %s\n", d.headerNote)
	}
	switch {
	case d.HaveWant && d.HaveGot:
		fmt.Fprintf(&sb, "logs diverge at event %d:\n  A %s\n  B %s\n", d.Index, d.Want, d.Got)
	case d.HaveWant:
		fmt.Fprintf(&sb, "log B ends at event %d; A continues with:\n  A %s\n", d.Index, d.Want)
	default:
		fmt.Fprintf(&sb, "log A ends at event %d; B continues with:\n  B %s\n", d.Index, d.Got)
	}
	lo := 0
	if d.Index > diffContext {
		lo = int(d.Index) - diffContext
	}
	fmt.Fprintf(&sb, "context (events %d..%d):\n", lo, d.Index)
	for i := lo; i <= int(d.Index); i++ {
		line := func(tag string, l *Log) {
			if i < l.Len() {
				fmt.Fprintf(&sb, "  %s %s\n", tag, l.Record(i))
			} else {
				fmt.Fprintf(&sb, "  %s %d: (log ended)\n", tag, i)
			}
		}
		line("A", a)
		line("B", b)
	}
	return strings.TrimSuffix(sb.String(), "\n")
}
