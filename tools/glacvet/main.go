// Command glacvet is the repository's own static analysis suite. It
// type-checks the packages named on the command line (default: the
// simulator tree — ./internal/..., ./cmd/... and the facade package) and
// enforces five families of invariants that the golden files and
// AllocsPerRun pins otherwise only catch at runtime:
//
//   - determinism: no wall-clock reads, no math/rand import, no
//     goroutine launches, no order-sensitive map iteration in simulation
//     code (checks wallclock, globalrand, goroutine, maprange);
//   - hotpath: functions marked //glacvet:hotpath — the zero-alloc
//     steady-state set — must not format, concatenate, capture or grow
//     (check hotpath);
//   - wire format: structs marked //glacvet:wire, and every struct they
//     embed in their encoded output, must tag each exported field
//     explicitly (check wiretag);
//   - dead exports: an exported name under internal/ with no type-checked
//     use in the module, a nested module such as bench/, or the root
//     Examples; a struct field there, exported or unexported, with no
//     such read; and an exported field that no code outside its package
//     reads or writes (DESIGN.md §2's config rule). Writes and other
//     tests do not count as reads, and wire types are exempt (check
//     deadexport);
//   - suppression hygiene: //glacvet:allow is the only escape hatch and
//     must name a real check, give a reason, and actually suppress
//     something (check allow).
//
// Diagnostics print as "file:line: [check] message" and any finding makes
// the exit status 1 (2 for operational errors), so `make lint` fails the
// build at the offending line instead of letting a golden drift explain
// it after the fact.
package main

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./internal/...", "./cmd/...", "."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	modRoot, err := findModRoot(cwd)
	if err != nil {
		fatal(err)
	}
	modPath, err := modulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		fatal(err)
	}
	findings, err := runGlacvet(modRoot, modPath, args)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		fmt.Printf("%s\n", formatFinding(f, cwd))
	}
	if len(findings) > 0 {
		fmt.Printf("glacvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "glacvet: %v\n", err)
	os.Exit(2)
}

// formatFinding renders one diagnostic, with the path relative to dir so
// CI log lines are clickable as PR annotations.
func formatFinding(f finding, dir string) string {
	name := f.pos.Filename
	if rel, err := filepath.Rel(dir, name); err == nil && !filepath.IsAbs(rel) {
		name = rel
	}
	return fmt.Sprintf("%s:%d: [%s] %s", name, f.pos.Line, f.check, f.msg)
}

// analysis carries the state of one glacvet run.
type analysis struct {
	fset     *token.FileSet
	loader   *loader
	scanned  []*pkgData
	findings []finding
	allows   map[allowKey][]*allowDir
	wire     map[*types.Named]bool // the wiretag closure, filled by checkWiretag
}

// runGlacvet loads the packages the patterns denote and runs every check
// family over them, returning the surviving findings in file/line order.
func runGlacvet(modRoot, modPath string, patterns []string) ([]finding, error) {
	l := newLoader(modRoot, modPath)
	paths, err := expandPatterns(modRoot, modPath, patterns)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no packages match %v", patterns)
	}
	a := &analysis{fset: l.fset, loader: l, allows: map[allowKey][]*allowDir{}}
	for _, path := range paths {
		pd, err := l.load(path)
		if err != nil {
			return nil, err
		}
		a.scanned = append(a.scanned, pd)
	}
	for _, pd := range a.scanned {
		a.collectAllows(pd)
		a.checkDeterminism(pd)
		a.checkHotpath(pd)
	}
	a.checkWiretag()
	if err := a.checkDeadexport(); err != nil {
		return nil, err
	}
	a.suppress()
	sort.Slice(a.findings, func(i, j int) bool {
		if a.findings[i].pos == a.findings[j].pos {
			return a.findings[i].check < a.findings[j].check
		}
		return lessPos(a.findings[i].pos, a.findings[j].pos)
	})
	return a.findings, nil
}

func (a *analysis) report(pos token.Position, check, msg string) {
	a.findings = append(a.findings, finding{pos: pos, check: check, msg: msg})
}

func (a *analysis) reportf(pos token.Position, check, format string, args ...any) {
	a.report(pos, check, fmt.Sprintf(format, args...))
}
