package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFixtureDiagnostics runs the full analysis over the fixture module
// under testdata/src and compares every diagnostic — order, position,
// check name and message — against the golden transcript. The fixtures
// cover all five check families plus the suppression hygiene rules
// (unknown check, missing reason, stale allow, typo'd directive), and
// each clean counterpart (sorted collect, presized append, justified
// allow) proves the checks do not overreach.
func TestFixtureDiagnostics(t *testing.T) {
	modRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := runGlacvet(modRoot, "fixture", []string{"./..."})
	if err != nil {
		t.Fatalf("runGlacvet: %v", err)
	}
	var b strings.Builder
	for _, f := range findings {
		b.WriteString(formatFinding(f, modRoot))
		b.WriteByte('\n')
	}
	got := b.String()

	golden := filepath.Join("testdata", "diagnostics.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics drifted from %s (re-run with -update if intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestSuppressedChecks asserts the polarity of the fixture cases the
// golden cannot express: specific lines that must NOT report.
func TestSuppressedChecks(t *testing.T) {
	modRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := runGlacvet(modRoot, "fixture", []string{"./..."})
	if err != nil {
		t.Fatalf("runGlacvet: %v", err)
	}
	byFile := map[string][]finding{}
	for _, f := range findings {
		rel, err := filepath.Rel(modRoot, f.pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		byFile[filepath.ToSlash(rel)] = append(byFile[filepath.ToSlash(rel)], f)
	}
	// The justified allows must have suppressed their findings: no
	// goroutine finding in det/det.go (Paced), no finding at all inside
	// Good/Family/Guard, no maprange finding for the sorted collector.
	for _, f := range byFile["det/det.go"] {
		if f.check == checkGoroutine && f.pos.Line > 33 {
			t.Errorf("Paced's justified goroutine was not suppressed: %+v", f)
		}
	}
	for _, f := range byFile["det/maprange.go"] {
		if f.pos.Line >= 21 && f.pos.Line <= 28 {
			t.Errorf("SortedNames (collect-then-sort) reported: %+v", f)
		}
		if f.pos.Line >= 93 && f.pos.Line <= 100 {
			t.Errorf("Labels (declared function, method, conversion) reported: %+v", f)
		}
	}
	// A justified allow and a type-checked use in the nested module or the
	// root's Examples keep an export from reporting. A test's use keeps
	// nothing: Peek is reported, and so is Timer.Stop although the test
	// calls Ticker.Stop, and so is Spelled although the nested module
	// declares and calls a Spelled of its own. Counter.String is reported
	// too: fmt.Stringer declares it, but no Counter reaches an interface.
	reported := map[string]bool{}
	for _, f := range byFile["internal/dead/dead.go"] {
		if f.check == checkDeadexport {
			fields := strings.Fields(f.msg)
			reported[fields[2]] = true // "exported <kind> <name> ..."
		}
	}
	for _, live := range []string{"Kept", "Ticker.Stop", "Used", "Documented"} {
		if reported[live] {
			t.Errorf("deadexport reported live name %s", live)
		}
	}
	for _, dead := range []string{"Peek", "Orphan", "Counter.Reset", "Counter.String", "Timer.Stop", "Spelled"} {
		if !reported[dead] {
			t.Errorf("deadexport kept %s, which only a test or a same-spelled name uses", dead)
		}
	}
	// A method an interface declares stays when it is called by name or
	// a value of its receiver type reaches an interface: an interface
	// parameter, fmt's ...any (inside a slice or a struct field too), an
	// assignment or declaration, a return, a composite element or a
	// conversion.
	reported = map[string]bool{}
	for _, f := range byFile["internal/dead/stringer.go"] {
		if f.check == checkDeadexport {
			reported[strings.Fields(f.msg)[2]] = true
		}
	}
	for _, live := range []string{"Named.String", "Param.String", "Logged.String", "Assigned.String",
		"Declared.String", "Returned.String", "Fault.Error", "Listed.String",
		"Keyed.String", "Positional.String", "Mapped.String", "Converted.String", "Held.String"} {
		if reported[live] {
			t.Errorf("deadexport reported %s, whose receiver reaches an interface", live)
		}
	}
	if !reported["Silent.String"] {
		t.Error("deadexport kept Silent.String, which nothing calls and no interface reaches")
	}
	// A field stays only if something outside the tests reads it. Writes
	// (assignments, op-assigns, ++, composite-literal keys, a self-append,
	// a write into a by-value field) keep nothing; ==, a map key, an
	// interface argument (through slices and pointers too), a write
	// through a pointer, a promoted selection,
	// the wire closure and a justified allow each keep a field. The rule
	// holds for unexported fields too, read in their package's own code.
	unread := map[string]bool{}    // the read rule
	localOnly := map[string]bool{} // the config rule
	for _, file := range []string{"internal/dead/fields.go", "internal/dead/config.go", "internal/dead/state.go"} {
		for _, f := range byFile[file] {
			if f.check != checkDeadexport {
				continue
			}
			name := strings.Fields(strings.TrimPrefix(f.msg, "exported "))[1]
			if strings.Contains(f.msg, "only inside package") {
				localOnly[name] = true
			} else {
				unread[name] = true
			}
		}
	}
	for _, live := range []string{"Gauge.Shown", "Gauge.Justified", "Pair.Left", "Pair.Right",
		"Key.Site", "Key.Day", "Printed.Text", "Shelf.Items", "Item.Label", "Outer.Ptr", "Record.Payload", "Wrapped.Base", "Base.Depth",
		"Config.Rate", "Config.Limit", "Plan.Config", "Plan.Name", "meter.total"} {
		if unread[live] {
			t.Errorf("deadexport reported read field %s", live)
		}
	}
	for _, dead := range []string{"Gauge.Set", "Gauge.Bumped", "Gauge.Counted", "Gauge.Keyed", "Gauge.Log",
		"Gauge.Tested", "Outer.Box", "Inner.Level", "meter.count", "meter.samples", "meter.peak"} {
		if !unread[dead] {
			t.Errorf("deadexport kept %s, which only writes or a test read", dead)
		}
	}
	// The config rule: an exported field also needs a read or write from
	// outside its package. A keyed or positional literal, ++, &x.F and a
	// write through a by-value field each count; wire fields are exempt,
	// and so is every field the read rule already reports.
	for _, kept := range []string{"Config.Rate", "Config.Step", "Config.Depth", "Plan.Config", "Spread.Lo",
		"Spread.Hi", "Record.Payload", "Gauge.Shown", "Pair.Left", "Base.Depth"} {
		if localOnly[kept] {
			t.Errorf("deadexport reported %s, which code outside its package uses", kept)
		}
	}
	for _, local := range []string{"Config.Limit", "Plan.Name"} {
		if !localOnly[local] {
			t.Errorf("deadexport kept %s, which only its own package sets and reads", local)
		}
	}
	for _, f := range byFile["hot/hot.go"] {
		if strings.Contains(f.msg, "Presized") || strings.Contains(f.msg, "Pure") ||
			strings.Contains(f.msg, "Cold") {
			t.Errorf("clean hotpath case reported: %+v", f)
		}
	}
}
