// Package loading: glacvet parses and type-checks the repository's own
// packages with nothing but the standard library. Imports inside the
// module resolve by mapping the import path onto the module directory;
// everything else (the standard library — the module has no external
// dependencies, and must stay that way) goes through the source importer,
// which type-checks stdlib packages straight from GOROOT source. Cgo is
// disabled so packages like net resolve to their pure-Go variants, which
// keeps the importer working on machines without a C toolchain.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// pkgData is one type-checked package of the analyzed module.
type pkgData struct {
	path  string // import path
	dir   string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader parses and type-checks module packages on demand. It implements
// types.Importer: module-internal imports load recursively, the rest
// delegate to the stdlib source importer sharing the same FileSet.
type loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	pkgs    map[string]*pkgData
	loading map[string]bool
}

func newLoader(modRoot, modPath string) *loader {
	// The source importer reads &build.Default; without cgo the stdlib
	// selects its pure-Go fallbacks, so no C toolchain is needed.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*pkgData{},
		loading: map[string]bool{},
	}
}

// Import implements types.Importer for the type-checker's benefit.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pd, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pd.pkg, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module import path onto its directory.
func (l *loader) dirFor(path string) string {
	if path == l.modPath {
		return l.modRoot
	}
	rel := strings.TrimPrefix(path, l.modPath+"/")
	return filepath.Join(l.modRoot, filepath.FromSlash(rel))
}

// load parses and type-checks one module package (cached).
func (l *loader) load(path string) (*pkgData, error) {
	if pd, ok := l.pkgs[path]; ok {
		return pd, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pd, err := l.check(path, dir, names)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pd
	return pd, nil
}

// check parses the named files of dir and type-checks them as package
// path.
func (l *loader) check(path, dir string, names []string) (*pkgData, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return &pkgData{path: path, dir: dir, files: files, pkg: pkg, info: info}, nil
}

// goFilesIn lists the non-test Go files of dir, sorted for stable builds.
func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// expandPatterns turns CLI package patterns ("./internal/...", ".") into
// the sorted list of module import paths they denote. A "/..." suffix
// walks the subtree; testdata, hidden and underscore directories and
// nested modules are skipped, as is any directory without non-test Go
// files.
func expandPatterns(modRoot, modPath string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) error {
		names, err := goFilesIn(dir)
		if err != nil || len(names) == 0 {
			return err
		}
		rel, err := filepath.Rel(modRoot, dir)
		if err != nil {
			return err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
		return nil
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		rest, ok := strings.CutSuffix(pat, "/...")
		if pat == "..." {
			rest, ok = "", true
		}
		if ok {
			root := filepath.Join(modRoot, filepath.FromSlash(rest))
			err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				base := d.Name()
				if p != root && (base == "testdata" || isModuleDir(p) ||
					strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
					return filepath.SkipDir
				}
				return add(p)
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		if err := add(filepath.Join(modRoot, filepath.FromSlash(pat))); err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// modulePath reads the module path out of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// findModRoot walks up from dir to the directory containing go.mod.
func findModRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
