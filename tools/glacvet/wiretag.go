// The wiretag check guards the wire formats behind shard-merge
// byte-identity and cache keys. A struct annotated //glacvet:wire is an
// encoded type — the sweep summary/cell JSON documents, the distrib
// shard request/reply types, the rescache counters — and every exported
// field on it must carry an explicit json tag. The check closes over
// field types transitively (a module struct nested inside a wire struct
// is itself on the wire, tagged or not), so renaming a field, or adding
// one and forgetting its tag, is a lint error at the field instead of a
// drifted golden or a poisoned cache key after the fact.
package main

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"
)

func (a *analysis) checkWiretag() {
	// Collect annotated root types across every scanned package.
	var roots []*types.Named
	for _, pd := range a.scanned {
		for _, file := range pd.files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					// The marker may sit on the type spec or, for a
					// single-spec declaration, on the gen decl.
					if !isDirective(ts.Doc, "wire") &&
						!(len(gd.Specs) == 1 && isDirective(gd.Doc, "wire")) {
						continue
					}
					tn, ok := pd.info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					named, ok := tn.Type().(*types.Named)
					if !ok {
						a.reportf(a.fset.Position(ts.Pos()), checkWiretag,
							"//glacvet:wire on %s, which is not a defined type", ts.Name.Name)
						continue
					}
					if _, ok := named.Underlying().(*types.Struct); !ok {
						a.reportf(a.fset.Position(ts.Pos()), checkWiretag,
							"//glacvet:wire on %s, which is not a struct type", ts.Name.Name)
						continue
					}
					roots = append(roots, named)
				}
			}
		}
	}
	a.wire = map[*types.Named]bool{}
	for _, named := range roots {
		a.checkWireStruct(named, a.wire)
	}
}

// checkWireStruct verifies one wire struct's fields and recurses into
// module-local named struct types its fields carry (through pointers,
// slices, arrays and map values). Types outside the module (time.Time,
// basic types) are the encoder's business, not ours.
func (a *analysis) checkWireStruct(named *types.Named, seen map[*types.Named]bool) {
	if seen[named] {
		return
	}
	seen[named] = true
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Exported() {
			tag := reflect.StructTag(st.Tag(i))
			if _, ok := tag.Lookup("json"); !ok {
				a.reportf(a.fset.Position(f.Pos()), checkWiretag,
					"exported field %s of wire struct %s has no explicit json tag; wire names must be pinned, not inherited",
					f.Name(), named.Obj().Name())
			}
		}
		for _, sub := range namedStructsIn(f.Type()) {
			if a.isModuleType(sub) {
				a.checkWireStruct(sub, seen)
			}
		}
	}
}

// isModuleType reports whether the named type is declared inside the
// analyzed module.
func (a *analysis) isModuleType(named *types.Named) bool {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	mod := a.loader.modPath
	return pkg.Path() == mod || strings.HasPrefix(pkg.Path(), mod+"/")
}

// namedStructsIn unwraps pointers, slices, arrays and map values down to
// the named struct types an encoder would descend into.
func namedStructsIn(t types.Type) []*types.Named {
	switch t := t.(type) {
	case *types.Named:
		if _, ok := t.Underlying().(*types.Struct); ok {
			return []*types.Named{t}
		}
	case *types.Pointer:
		return namedStructsIn(t.Elem())
	case *types.Slice:
		return namedStructsIn(t.Elem())
	case *types.Array:
		return namedStructsIn(t.Elem())
	case *types.Map:
		return append(namedStructsIn(t.Key()), namedStructsIn(t.Elem())...)
	}
	return nil
}
