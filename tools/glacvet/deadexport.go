// The deadexport check is the internal counterpart of the facade's
// TestFacadeNamesAreExercised. It reports an exported func, method, const,
// var or type declared in a non-test file under <module>/internal/ unless
// the type checker resolves a use of that very object in one of three
// sources: a package of the module (all of ./..., whatever the patterns);
// a non-test package of a nested module such as bench/; or the module
// root's example_test.go, the facade's documented Examples, checked as
// the external test package. Identifiers in other _test.go files never
// count, and a same-spelled name that resolves to another object is not a
// use. A method also stays when an interface in the loaded packages or
// their imports declares its name (String, Error), and a justified
// //glacvet:allow deadexport keeps anything else.
package main

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

func (a *analysis) checkDeadexport() error {
	sources, err := a.useSources()
	if err != nil {
		return err
	}
	used := map[types.Object]bool{}
	ifaceMethods := map[string]bool{"Error": true} // the universe's error
	seen := map[*types.Package]bool{}
	for _, pd := range sources {
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

	internal := a.loader.modPath + "/internal"
	for _, pd := range a.scanned {
		if pd.path != internal && !strings.HasPrefix(pd.path, internal+"/") {
			continue
		}
		for id, obj := range pd.info.Defs {
			if obj == nil || !obj.Exported() || used[obj] {
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
				"exported %s %s has no type-checked use in the module, a nested module or the root Examples; delete it with the state only it reads",
				kind, name)
		}
	}
	return nil
}

// useSources type-checks every package whose uses keep an export alive:
// each package of the module, each non-test package of a nested module
// (testdata, hidden and underscore directories are skipped, as the go tool
// skips them), and the root's example_test.go as package <module>_test.
// A nested module's path must mirror its directory (bench/ is
// <module>/bench), so the loader resolves its imports like the module's.
func (a *analysis) useSources() ([]*pkgData, error) {
	l := a.loader
	paths, err := expandPatterns(l.modRoot, l.modPath, []string{"./..."})
	if err != nil {
		return nil, err
	}
	err = filepath.WalkDir(l.modRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || p == l.modRoot {
			return err
		}
		if base := d.Name(); base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
			return filepath.SkipDir
		}
		if !isModuleDir(p) {
			return nil
		}
		mod, err := modulePath(filepath.Join(p, "go.mod"))
		if err != nil {
			return err
		}
		if rel, _ := filepath.Rel(l.modRoot, p); mod != l.modPath+"/"+filepath.ToSlash(rel) {
			return fmt.Errorf("nested module %s at %s: its path must be %s/%s", mod, p, l.modPath, filepath.ToSlash(rel))
		}
		more, err := expandPatterns(p, mod, []string{"./..."})
		paths = append(paths, more...)
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []*pkgData
	for _, path := range paths {
		pd, err := l.load(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pd)
	}
	const examples = "example_test.go"
	if _, err := os.Stat(filepath.Join(l.modRoot, examples)); err == nil {
		pd, err := l.check(l.modPath+"_test", l.modRoot, []string{examples})
		if err != nil {
			return nil, err
		}
		out = append(out, pd)
	}
	return out, nil
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

func isModuleDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}
