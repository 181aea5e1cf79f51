// The deadexport check is the internal counterpart of the facade's
// TestFacadeNamesAreExercised. It reports an exported func, method, const,
// var or type declared in a non-test file under <module>/internal/ unless
// a package of the module (all of ./..., whatever the patterns) uses it,
// by the type checker's Uses; an identifier of that name appears in a
// _test.go file or a nested module such as bench/ (parsed, not
// type-checked); for a method, an interface in the loaded packages or
// their imports declares that name (String, Error); or a justified
// //glacvet:allow deadexport keeps it.
package main

import (
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func (a *analysis) checkDeadexport() error {
	l := a.loader
	paths, err := expandPatterns(l.modRoot, l.modPath, []string{"./..."})
	if err != nil {
		return err
	}
	used := map[types.Object]bool{}
	ifaceMethods := map[string]bool{"Error": true} // the universe's error
	seen := map[*types.Package]bool{}
	for _, path := range paths {
		pd, err := l.load(path)
		if err != nil {
			return err
		}
		for _, obj := range pd.info.Uses { // selectors' Sel idents included
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a method of an instantiated generic type
			}
			used[obj] = true
		}
		for _, tv := range pd.info.Types {
			addInterfaceMethods(ifaceMethods, tv.Type)
		}
		collectInterfaceMethods(ifaceMethods, pd.pkg, seen)
	}
	outside, err := a.namesOutsideModule()
	if err != nil {
		return err
	}

	internal := l.modPath + "/internal"
	for _, pd := range a.scanned {
		if pd.path != internal && !strings.HasPrefix(pd.path, internal+"/") {
			continue
		}
		for id, obj := range pd.info.Defs {
			if obj == nil || !obj.Exported() || used[obj] || outside[obj.Name()] {
				continue
			}
			kind, name := strings.Fields(types.ObjectString(obj, nil))[0], obj.Name()
			if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
				if ifaceMethods[name] {
					continue
				}
				recv := types.TypeString(fn.Signature().Recv().Type(), types.RelativeTo(pd.pkg))
				kind, name = "method", strings.TrimPrefix(recv, "*")+"."+name
			} else if obj.Parent() != pd.pkg.Scope() {
				continue // a field, parameter or local
			}
			a.reportf(a.fset.Position(id.Pos()), checkDeadexport,
				"exported %s %s is never referenced in the module, its tests or bench/; delete it with the state only it reads",
				kind, name)
		}
	}
	return nil
}

// collectInterfaceMethods records the method names of every interface type
// declared at package scope in pkg and, transitively, its imports.
func collectInterfaceMethods(names map[string]bool, pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	for _, n := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
			addInterfaceMethods(names, tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		collectInterfaceMethods(names, imp, seen)
	}
}

func addInterfaceMethods(names map[string]bool, t types.Type) {
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			names[iface.Method(i).Name()] = true
		}
	}
}

// namesOutsideModule collects every identifier spelled in the module's
// _test.go files and in the Go files of nested modules (bench/). Testdata,
// hidden and underscore directories are skipped, as the go tool skips them.
func (a *analysis) namesOutsideModule() (map[string]bool, error) {
	root := a.loader.modRoot
	names := map[string]bool{}
	var nested []string // nested module roots; WalkDir visits each before its files
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || p == root {
			return err
		}
		base := d.Name()
		if d.IsDir() {
			if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
				return filepath.SkipDir
			}
			if isModuleDir(p) {
				nested = append(nested, p+string(filepath.Separator))
			}
			return nil
		}
		inNested := slices.ContainsFunc(nested, func(r string) bool { return strings.HasPrefix(p, r) })
		if !strings.HasSuffix(base, "_test.go") && !(inNested && strings.HasSuffix(base, ".go")) {
			return nil
		}
		f, err := parser.ParseFile(a.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names[id.Name] = true
			}
			return true
		})
		return nil
	})
	return names, err
}

func isModuleDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}
