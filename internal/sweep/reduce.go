// The reducer: Reduce folds executed cells into a Summary — every cell in
// global index order plus per-configuration stats folded across the seed
// axis. Reduce is shard-agnostic: it folds whatever cells it is given, so
// the same code produces a full summary from a full run and a partial
// summary from a shard, and Merge (merge.go) recombines partials through
// it.
package sweep

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/trace"
)

// CellResult is one executed cell: its identity, the extracted metrics,
// the series the grid's Drive hook captured during the run, and the
// build/run error if any (as a string, so summaries print
// deterministically).
type CellResult struct {
	Cell    Cell
	Metrics []Metric
	Series  []*trace.Series
	Err     string
}

// SeriesNamed returns the captured series with the given name.
func (cr CellResult) SeriesNamed(name string) (*trace.Series, bool) {
	for _, s := range cr.Series {
		if s != nil && s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Metric returns the named per-cell metric.
func (cr CellResult) Metric(name string) (float64, bool) {
	for _, m := range cr.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Stats is one metric folded across a configuration's seeds. CI95 is the
// half-width of the 95% confidence interval of the mean (Student t), the
// quantity a sequential-seeding loop watches: stop adding seeds once
// CI95 is tight enough. It is 0 whenever fewer than two finite values
// were folded.
type Stats struct {
	Name                         string
	N                            int
	Mean, Stddev, CI95, Min, Max float64
}

// Group is one configuration of the grid — everything but the seed axis —
// with its metrics folded across the N seeds that ran it.
type Group struct {
	Scenario string
	Stations int
	Probes   int
	Override string
	Days     int
	// N counts the cells folded into Stats; Errors counts cells excluded
	// because they failed to build or run.
	N, Errors int
	Stats     []Stats
}

// Label renders the configuration for tables.
func (gr Group) Label() string {
	var b strings.Builder
	b.WriteString(gr.Scenario)
	if gr.Stations > 0 {
		fmt.Fprintf(&b, " stations=%d", gr.Stations)
	}
	if gr.Probes > 0 {
		fmt.Fprintf(&b, " probes=%d", gr.Probes)
	}
	if gr.Override != "" {
		fmt.Fprintf(&b, " ov=%s", gr.Override)
	}
	return b.String()
}

// Stat returns the group's folded stats for the named metric.
func (gr Group) Stat(name string) (Stats, bool) {
	for _, st := range gr.Stats {
		if st.Name == name {
			return st, true
		}
	}
	return Stats{}, false
}

// Summary is a reduced sweep — full or partial. Cells hold the executed
// cells in global index order; Groups fold each configuration across the
// seeds present. Fingerprint and TotalCells identify the full plan the
// cells came from, so shard summaries can prove to Merge that they belong
// together; a summary is complete when len(Cells) == TotalCells. Identical
// for any worker count and, after Merge, any shard split.
type Summary struct {
	// Fingerprint hashes the full plan (see Fingerprint); empty on
	// hand-built summaries, which Merge refuses.
	Fingerprint string
	// TotalCells is the full plan's cell count, of which this summary
	// holds len(Cells).
	TotalCells int
	Cells      []CellResult
	Groups     []Group
}

// Reduce folds executed cells into a Summary: cells sorted by global
// index, then per-configuration stats folded in that order so the result
// is deterministic regardless of execution order. The caller
// (RunPlanned, MergeSummaries) stamps the plan's Fingerprint and
// TotalCells on the returned summary.
func Reduce(results []CellResult) *Summary {
	cells := make([]CellResult, len(results))
	copy(cells, results)
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].Cell.Index < cells[j].Cell.Index })
	type acc struct {
		group  Group
		names  []string
		values map[string][]float64
	}
	var order []string
	accs := map[string]*acc{}
	for _, cr := range cells {
		c := cr.Cell
		// %q on the string axes: a name containing the separator must not
		// collide two configurations into one fold.
		key := fmt.Sprintf("%q|%d|%d|%q|%d", c.Scenario, c.Stations, c.Probes, c.Override, c.Days)
		a, ok := accs[key]
		if !ok {
			a = &acc{
				group: Group{Scenario: c.Scenario, Stations: c.Stations,
					Probes: c.Probes, Override: c.Override, Days: c.Days},
				values: map[string][]float64{},
			}
			accs[key] = a
			order = append(order, key)
		}
		if cr.Err != "" {
			a.group.Errors++
			continue
		}
		a.group.N++
		for _, m := range cr.Metrics {
			if _, seen := a.values[m.Name]; !seen {
				a.names = append(a.names, m.Name)
			}
			a.values[m.Name] = append(a.values[m.Name], m.Value)
		}
	}
	sum := &Summary{Cells: cells}
	for _, key := range order {
		a := accs[key]
		for _, name := range a.names {
			a.group.Stats = append(a.group.Stats, statsOf(name, a.values[name]))
		}
		sum.Groups = append(sum.Groups, a.group)
	}
	return sum
}

// statsOf computes mean, sample stddev, min and max of one metric's values.
// Non-finite inputs (a NaN or ±Inf metric from a Drive hook) are
// excluded from the fold, and an empty fold yields zero-valued stats with
// N=0 — never the NaN mean or ±Inf min/max sentinels of a naive fold,
// which would poison every encoder downstream.
func statsOf(name string, vs []float64) Stats {
	st := Stats{Name: name}
	var total float64
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if st.N == 0 || v < st.Min {
			st.Min = v
		}
		if st.N == 0 || v > st.Max {
			st.Max = v
		}
		st.N++
		total += v
	}
	if st.N == 0 {
		return st
	}
	st.Mean = total / float64(st.N)
	if st.N > 1 {
		var ss float64
		n := 0
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d := v - st.Mean
			ss += d * d
			n++
		}
		st.Stddev = math.Sqrt(ss / float64(n-1))
		st.CI95 = tCrit95(st.N-1) * st.Stddev / math.Sqrt(float64(st.N))
	}
	return st
}

// tTable95 holds two-sided 95% Student-t critical values for 1-30 degrees
// of freedom; beyond 30 tCrit95 interpolates towards the normal 1.96.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCrit95 returns the two-sided 95% Student-t critical value for df degrees
// of freedom: the exact table up to df=30, then linear interpolation in
// 1/df between the standard anchors (40, 60, 120, ∞) — deterministic and
// accurate to ~1e-3, which is all a stopping heuristic needs.
func tCrit95(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(tTable95) {
		return tTable95[df-1]
	}
	anchors := []struct {
		inv float64 // 1/df, with 0 standing for the normal limit
		t   float64
	}{{1.0 / 30, 2.042}, {1.0 / 40, 2.021}, {1.0 / 60, 2.000}, {1.0 / 120, 1.980}, {0, 1.960}}
	inv := 1 / float64(df)
	for i := 0; i+1 < len(anchors); i++ {
		lo, hi := anchors[i], anchors[i+1]
		if inv >= hi.inv {
			frac := (lo.inv - inv) / (lo.inv - hi.inv)
			return lo.t + frac*(hi.t-lo.t)
		}
	}
	return 1.960
}

// String renders the summary: one row per cell, then the per-configuration
// folds. Deterministic for any worker count and shard split.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== sweep: %d cells, %d configurations ===\n", len(s.Cells), len(s.Groups))
	var rows [][]string
	var failed []CellResult
	for _, cr := range s.Cells {
		if cr.Err != "" {
			// Keep the table aligned; the error text follows it in full.
			rows = append(rows, []string{cr.Cell.Label(), fmt.Sprintf("%d", cr.Cell.Days),
				"-", "-", "-", "-", "-"})
			failed = append(failed, cr)
			continue
		}
		// Non-finite hook metrics render uniformly: the wire format carries
		// them as null (NaN on decode), so distinguishing NaN from ±Inf
		// here would break the byte-identity of merged vs single-process
		// summaries.
		cell := func(name, format string) string {
			v, _ := cr.Metric(name)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return "-"
			}
			return fmt.Sprintf(format, v)
		}
		rows = append(rows, []string{cr.Cell.Label(), fmt.Sprintf("%d", cr.Cell.Days),
			cell("runs", "%.0f"), cell("completed-runs", "%.0f"), cell("comms-failures", "%.0f"),
			cell("probe-readings", "%.0f"), cell("mb-to-server", "%.2f")})
	}
	b.WriteString(trace.Table([]string{"Cell", "Days", "Runs", "Completed", "CommsFail", "Readings", "MB"}, rows))
	for _, cr := range failed {
		fmt.Fprintf(&b, "ERROR: %s: %s\n", cr.Cell.Label(), cr.Err)
	}
	rows = rows[:0]
	for _, gr := range s.Groups {
		label := gr.Label()
		if gr.Errors > 0 {
			rows = append(rows, []string{label, fmt.Sprintf("(%d cells failed)", gr.Errors), "", "", "", "", ""})
		}
		for _, st := range gr.Stats {
			rows = append(rows, []string{label, st.Name, fmt.Sprintf("%d", st.N),
				fmt.Sprintf("%.2f", st.Mean), fmt.Sprintf("%.2f", st.Stddev),
				fmt.Sprintf("%.2f", st.CI95),
				fmt.Sprintf("%.2f", st.Min), fmt.Sprintf("%.2f", st.Max)})
		}
	}
	b.WriteString("\n")
	b.WriteString(trace.Table([]string{"Configuration", "Metric", "N", "Mean", "Stddev", "CI95", "Min", "Max"}, rows))
	return b.String()
}
