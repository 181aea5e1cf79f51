// Directive grammar and suppression hygiene. glacvet understands three
// comment directives:
//
//	//glacvet:hotpath            on a function: enforce allocation discipline
//	//glacvet:wire               on a struct type: enforce explicit JSON tags
//	//glacvet:allow <check> <reason>  suppress one finding, with justification
//
// An allow suppresses findings of the named check on its own line or the
// line directly below (so it can trail the offending statement or sit
// just above it). The directive system polices itself: an unknown check
// name, a missing reason, an unrecognized glacvet: directive, or an allow
// that no finding matched ("stale") are all errors — the escape hatch
// never rots silently.
package main

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Check names. The four determinism sub-checks share the family alias
// "determinism", accepted in allow directives to mean any of them.
const (
	checkWallclock  = "wallclock"
	checkGlobalrand = "globalrand"
	checkGoroutine  = "goroutine"
	checkMaprange   = "maprange"
	checkHotpath    = "hotpath"
	checkWiretag    = "wiretag"
	checkDeadexport = "deadexport"
	checkAllow      = "allow" // suppression hygiene's own diagnostics
)

var knownChecks = map[string]bool{
	checkWallclock:  true,
	checkGlobalrand: true,
	checkGoroutine:  true,
	checkMaprange:   true,
	checkHotpath:    true,
	checkWiretag:    true,
	checkDeadexport: true,
}

const determinismFamily = "determinism"

var determinismChecks = map[string]bool{
	checkWallclock:  true,
	checkGlobalrand: true,
	checkGoroutine:  true,
	checkMaprange:   true,
}

func knownCheckList() string {
	names := make([]string, 0, len(knownChecks))
	for n := range knownChecks {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ") + "; family alias: " + determinismFamily
}

// finding is one diagnostic, printed as "file:line: [check] message".
type finding struct {
	pos   token.Position
	check string
	msg   string
}

// allowDir is one parsed //glacvet:allow directive.
type allowDir struct {
	pos    token.Position
	check  string
	reason string
	used   bool
	bad    bool // malformed: reported as an error, never suppresses
}

// covers reports whether the directive's check name matches a finding's.
func (a *allowDir) covers(check string) bool {
	if a.check == check {
		return true
	}
	return a.check == determinismFamily && determinismChecks[check]
}

// directiveText extracts the payload of a glacvet directive comment:
// "//glacvet:allow x y" -> "allow x y", ok. Like go:build directives,
// the marker must follow "//" immediately.
func directiveText(c *ast.Comment) (string, bool) {
	rest, ok := strings.CutPrefix(c.Text, "//glacvet:")
	if !ok {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// isDirective reports whether the comment group carries the named marker
// directive ("hotpath" or "wire") with no arguments.
func isDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if text, ok := directiveText(c); ok && text == name {
			return true
		}
	}
	return false
}

// collectAllows parses every glacvet: directive in the package's comments,
// returning allow directives plus immediate errors for malformed ones.
// The hotpath/wire markers are recognized (and validated) here too, so a
// typo'd directive is an error instead of a silently ignored comment.
func (a *analysis) collectAllows(pd *pkgData) {
	for _, f := range pd.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := directiveText(c)
				if !ok {
					continue
				}
				pos := a.fset.Position(c.Pos())
				switch {
				case text == "hotpath" || text == "wire":
					// Structural markers; their placement is validated by
					// the checks that consume them.
				case text == "allow" || strings.HasPrefix(text, "allow "):
					fields := strings.Fields(text)
					ad := &allowDir{pos: pos}
					if len(fields) < 2 {
						ad.bad = true
						a.report(pos, checkAllow,
							"//glacvet:allow needs a check name and a reason")
					} else {
						ad.check = fields[1]
						ad.reason = strings.Join(fields[2:], " ")
						if ad.check != determinismFamily && !knownChecks[ad.check] {
							ad.bad = true
							a.reportf(pos, checkAllow,
								"unknown check %q in //glacvet:allow (known: %s)",
								ad.check, knownCheckList())
						} else if ad.reason == "" {
							ad.bad = true
							a.reportf(pos, checkAllow,
								"//glacvet:allow %s needs a justification", ad.check)
						}
					}
					a.allows[allowKey{pos.Filename, pos.Line}] =
						append(a.allows[allowKey{pos.Filename, pos.Line}], ad)
				default:
					a.reportf(pos, checkAllow,
						"unknown directive //glacvet:%s (want hotpath, wire, or allow <check> <reason>)",
						strings.Fields(text)[0])
				}
			}
		}
	}
}

// suppress drops findings covered by a well-formed allow on the same line
// or the line above, marking those allows used; it then reports every
// unused allow as stale. Directive-hygiene findings themselves cannot be
// suppressed.
func (a *analysis) suppress() {
	kept := a.findings[:0]
	for _, f := range a.findings {
		if f.check == checkAllow {
			kept = append(kept, f)
			continue
		}
		suppressed := false
		for _, line := range []int{f.pos.Line, f.pos.Line - 1} {
			for _, ad := range a.allows[allowKey{f.pos.Filename, line}] {
				if !ad.bad && ad.covers(f.check) {
					ad.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	a.findings = kept
	var stale []*allowDir
	for _, ads := range a.allows {
		for _, ad := range ads {
			if !ad.bad && !ad.used {
				stale = append(stale, ad)
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool { return lessPos(stale[i].pos, stale[j].pos) })
	for _, ad := range stale {
		a.reportf(ad.pos, checkAllow,
			"stale //glacvet:allow %s: no %s finding on this or the next line",
			ad.check, ad.check)
	}
}

type allowKey struct {
	file string
	line int
}

func lessPos(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}
