// The deadexport check is the internal counterpart of the facade's
// TestFacadeNamesAreExercised. It reports an exported func, method, const,
// var or type declared in a non-test file under <module>/internal/ unless
// the type checker resolves a use of that very object in one of three
// sources: a package of the module (all of ./..., whatever the patterns);
// a non-test package of a nested module such as bench/; or the module
// root's example_test.go, the facade's documented Examples, checked as
// the external test package. Identifiers in other _test.go files never
// count, and a same-spelled name that resolves to another object is not a
// use. A method an interface in the loaded packages or their imports
// declares by name (String, Error) may be called through that interface,
// so it also stays when a value of its receiver type reaches an interface
// in those sources: as an argument to an interface parameter (fmt's
// ...any included), an assignment or declaration to an interface, a
// returned interface result, a struct, slice or map literal element in an
// interface slot, or a conversion to an interface type. Reaching through
// a pointer, slice, array, map or struct field counts, since fmt formats
// what it finds there. A justified //glacvet:allow deadexport keeps
// anything else.
//
// A struct field declared there, exported or not, needs more than a use:
// it needs a read in the same three sources (for an unexported field,
// that is its own package's non-test code). Writes keep nothing alive:
// the left side of =, := or an op-assign, x.f = append(x.f, ...), the
// operand of ++/--, and the key of a keyed composite literal. A write into
// a field of a struct held by value (x.F.G = v) writes F too; a write
// through any other field reads it. Comparing a struct with == or != and
// using it as a map key read every field it holds by value; passing a
// value as an interface argument, where fmt or encoding/json read it by
// reflection, reads every field reflection reaches from it, through
// structs, pointers, arrays, slices and maps.
//
// An exported field also needs a type-checked read or write outside its
// declaring package, in the same three sources. That is DESIGN.md §2's
// config rule: a field exists while code outside its package sets it, and
// a value only the package itself sets is a package constant (or, when
// the package sets several values, an unexported field). Besides the
// writes above, a positional composite-literal element and &x.F count.
//
// Fields of //glacvet:wire types and of the types they reach (the wiretag
// closure) are exempt from both field rules, since encoding/json reads
// and writes them.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
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
	read := map[*types.Var]bool{}
	outside := map[*types.Var]bool{}               // fields used outside their package
	ifaceMethods := map[string]bool{"Error": true} // the universe's error
	seen := map[*types.Package]bool{}
	boxed := map[*types.TypeName]bool{} // named types whose values reach an interface
	for _, pd := range sources {
		collectBoxed(pd, boxed)
		reads, writes := collectFieldUses(pd)
		for _, set := range []map[*types.Var]bool{reads, writes} {
			for v := range set {
				if v.Pkg() != pd.pkg {
					outside[v] = true
				}
			}
		}
		for v := range reads {
			read[v] = true
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

	wire := map[*types.Var]bool{}
	for named := range a.wire {
		markFields(wire, named)
	}
	internal := a.loader.modPath + "/internal"
	for _, pd := range a.scanned {
		if pd.path != internal && !strings.HasPrefix(pd.path, internal+"/") {
			continue
		}
		owners := fieldOwners(pd)
		for id, obj := range pd.info.Defs {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				owner, named := owners[v]
				if wire[v] || v.Name() == "_" || !(v.Exported() || named) {
					continue
				}
				name := v.Name()
				if owner != "" {
					name = owner + "." + name
				}
				switch {
				case !read[v] && v.Exported():
					a.reportf(a.fset.Position(id.Pos()), checkDeadexport,
						"exported field %s has no type-checked read in the module, a nested module or the root Examples; delete it with the work that only fills it",
						name)
				case !read[v]:
					a.reportf(a.fset.Position(id.Pos()), checkDeadexport,
						"field %s has no read in its package's non-test code; delete it with the work that only fills it", name)
				case v.Exported() && named && !outside[v]:
					a.reportf(a.fset.Position(id.Pos()), checkDeadexport,
						"exported field %s is set and read only inside package %s; make a value only the package sets a package constant, or unexport the field",
						name, pd.pkg.Name())
				}
				continue
			}
			if obj == nil || !obj.Exported() || used[obj] {
				continue
			}
			kind, name := strings.Fields(types.ObjectString(obj, nil))[0], obj.Name()
			if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
				recvType := fn.Signature().Recv().Type()
				if types.IsInterface(recvType) || ifaceMethods[name] && boxed[receiverName(recvType)] {
					continue // an interface's own method, or one callable through it
				}
				recv := types.TypeString(recvType, types.RelativeTo(pd.pkg))
				kind, name = "method", strings.TrimPrefix(recv, "*")+"."+name
			} else if obj.Parent() != pd.pkg.Scope() {
				continue // a parameter or local
			}
			a.reportf(a.fset.Position(id.Pos()), checkDeadexport,
				"exported %s %s has no type-checked use in the module, a nested module or the root Examples; delete it with the state only it reads",
				kind, name)
		}
	}
	return nil
}

// collectFieldUses returns the struct fields that pd's code reads and
// those it writes. A read is a field use in no write position, an
// embedded field a promoted selection passes through, every by-value
// field of a struct that is compared with == or != or used as a map key,
// and every field reflection reaches from an interface argument. A write is a field on the left of an
// assignment, a self-append or ++/--, a composite-literal element (keyed
// or positional), or a by-value field that a write lands inside.
func collectFieldUses(pd *pkgData) (reads, writes map[*types.Var]bool) {
	reads, writes = map[*types.Var]bool{}, map[*types.Var]bool{}
	written := map[*ast.Ident]bool{}
	var write func(e ast.Expr)
	write = func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok || pd.info.Selections[sel] == nil || pd.info.Selections[sel].Kind() != types.FieldVal {
			return
		}
		written[sel.Sel] = true
		if _, ok := pd.info.TypeOf(sel.X).Underlying().(*types.Struct); ok {
			write(sel.X) // the write lands inside the struct sel.X holds by value
		}
	}
	for _, f := range pd.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					write(lhs)
					if len(n.Rhs) == len(n.Lhs) {
						if arg := selfAppend(pd, lhs, n.Rhs[i]); arg != nil {
							write(arg)
						}
					}
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.CompositeLit:
				t := pd.info.TypeOf(n)
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				if st, ok := t.Underlying().(*types.Struct); ok {
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								written[id] = true
							}
						} else {
							writes[st.Field(i).Origin()] = true
						}
					}
				}
			case *ast.CallExpr:
				sig, ok := pd.info.TypeOf(n.Fun).Underlying().(*types.Signature)
				if !ok {
					break // a conversion
				}
				for i, arg := range n.Args {
					if n.Ellipsis.IsValid() && i == len(n.Args)-1 {
						break // a variadic slice passed whole
					}
					if types.IsInterface(paramType(sig, i)) {
						markReachable(reads, nil, pd.info.TypeOf(arg), map[types.Type]bool{})
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					markFields(reads, pd.info.TypeOf(n.X))
					markFields(reads, pd.info.TypeOf(n.Y))
				}
			}
			return true
		})
	}
	for id, obj := range pd.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if written[id] {
				writes[v.Origin()] = true
			} else {
				reads[v.Origin()] = true
			}
		}
	}
	for _, sel := range pd.info.Selections {
		t, path := sel.Recv(), sel.Index()
		for _, i := range path[:len(path)-1] {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			f := t.Underlying().(*types.Struct).Field(i)
			reads[f.Origin()] = true
			t = f.Type()
		}
	}
	for _, tv := range pd.info.Types {
		if tv.Type == nil {
			continue
		}
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			markFields(reads, m.Key())
		}
	}
	return reads, writes
}

// collectBoxed adds to boxed every named type a value of which pd's code
// turns into an interface value, and every named type reachable from it
// (see markReachable): an argument to an interface parameter, the right
// side of an assignment or var declaration to an interface, a result
// returned as an interface, an element of a struct, slice or map literal
// whose slot is an interface, and the operand of a conversion to an
// interface type.
func collectBoxed(pd *pkgData, boxed map[*types.TypeName]bool) {
	box := func(dst types.Type, e ast.Expr) {
		if dst == nil || !types.IsInterface(dst) {
			return
		}
		if t := pd.info.TypeOf(e); t != nil && !types.IsInterface(t) {
			markReachable(nil, boxed, t, map[types.Type]bool{})
		}
	}
	for _, f := range pd.files {
		var stack []ast.Node // the enclosing nodes, for a return's function
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						box(pd.info.TypeOf(lhs), n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, name := range n.Names {
						if obj := pd.info.Defs[name]; obj != nil {
							box(obj.Type(), n.Values[i])
						}
					}
				}
			case *ast.ReturnStmt:
				if sig := enclosingSignature(pd, stack); sig != nil && sig.Results().Len() == len(n.Results) {
					for i, r := range n.Results {
						box(sig.Results().At(i).Type(), r)
					}
				}
			case *ast.CompositeLit:
				t := pd.info.TypeOf(n)
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				for i, el := range n.Elts {
					var key ast.Expr
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						key, el = kv.Key, kv.Value
					}
					switch u := t.Underlying().(type) {
					case *types.Struct:
						if key == nil {
							box(u.Field(i).Type(), el)
						} else if id, ok := key.(*ast.Ident); ok && pd.info.Uses[id] != nil {
							box(pd.info.Uses[id].Type(), el)
						}
					case *types.Slice:
						box(u.Elem(), el)
					case *types.Map:
						box(u.Elem(), el)
					}
				}
			case *ast.CallExpr:
				if tv, ok := pd.info.Types[n.Fun]; ok && tv.IsType() {
					if len(n.Args) == 1 {
						box(tv.Type, n.Args[0])
					}
					break
				}
				sig, ok := pd.info.TypeOf(n.Fun).Underlying().(*types.Signature)
				if !ok {
					break
				}
				for i, arg := range n.Args {
					if n.Ellipsis.IsValid() && i == len(n.Args)-1 {
						break // a variadic slice passed whole
					}
					box(paramType(sig, i), arg)
				}
			}
			return true
		})
	}
}

// enclosingSignature is the signature of the innermost function
// declaration or literal on stack.
func enclosingSignature(pd *pkgData, stack []ast.Node) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			if obj, ok := pd.info.Defs[fn.Name].(*types.Func); ok {
				return obj.Signature()
			}
			return nil
		case *ast.FuncLit:
			sig, _ := pd.info.TypeOf(fn).(*types.Signature)
			return sig
		}
	}
	return nil
}

// receiverName is the named type a method receiver of type t belongs to.
func receiverName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// selfAppend returns the first argument of rhs when rhs appends to lhs
// itself, as in x.f = append(x.f, v): that argument is part of the write.
func selfAppend(pd *pkgData, lhs, rhs ast.Expr) ast.Expr {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || pd.info.Uses[id] != types.Universe.Lookup("append") {
		return nil
	}
	if types.ExprString(ast.Unparen(call.Args[0])) != types.ExprString(ast.Unparen(lhs)) {
		return nil
	}
	return call.Args[0]
}

// paramType is the type of the i'th argument of a call to sig, the
// element type for the arguments a variadic parameter collects.
func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if sig.Variadic() && i >= params.Len()-1 {
		if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
			return s.Elem()
		}
	}
	return params.At(i).Type()
}

// markFields adds every field t holds by value to set: the fields of a
// struct, recursively through struct and array fields, and those of an
// array's element.
func markFields(set map[*types.Var]bool, t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			set[f.Origin()] = true
			markFields(set, f.Type())
		}
	case *types.Array:
		markFields(set, u.Elem())
	}
}

// markReachable adds to fields every struct field, and to named every
// named type, that a reflective reader such as fmt or encoding/json
// reaches from a value of type t: t itself, then through structs,
// pointers, arrays, slices and maps. Either set may be nil.
func markReachable(fields map[*types.Var]bool, named map[*types.TypeName]bool, t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	if n, ok := t.(*types.Named); ok && named != nil {
		named[n.Origin().Obj()] = true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if fields != nil {
				fields[f.Origin()] = true
			}
			markReachable(fields, named, f.Type(), seen)
		}
	case *types.Pointer:
		markReachable(fields, named, u.Elem(), seen)
	case *types.Array:
		markReachable(fields, named, u.Elem(), seen)
	case *types.Slice:
		markReachable(fields, named, u.Elem(), seen)
	case *types.Map:
		markReachable(fields, named, u.Key(), seen)
		markReachable(fields, named, u.Elem(), seen)
	}
}

// fieldOwners names the declared type of each field of pd's named struct
// types, for the report; a field of an anonymous struct has no owner.
func fieldOwners(pd *pkgData) map[*types.Var]string {
	owners := map[*types.Var]string{}
	for _, obj := range pd.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					owners[st.Field(i)] = tn.Name()
				}
			}
		}
	}
	return owners
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
