package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// implicitMethods are the method names the standard library calls
// through interfaces no loaded code needs to mention: fmt's Stringer,
// GoStringer and Formatter, error and its errors.Is/As/Unwrap hooks,
// and the encoding/json and encoding marshalers.
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
}

// deadDecl is one exported internal/ declaration under test and the
// source span of its declaration, so a use inside the span (a
// recursive call, a self-referencing type) does not keep it alive.
type deadDecl struct {
	u          *unit
	name       *ast.Ident
	kind       string
	file       string
	start, end int
}

// checkDeadExports is the cross-unit deadexport pass. A finding is an
// exported func, method, type, var or const declared in a package
// with an "internal" path segment that no non-test file of any loaded
// unit references outside its own declaration. Struct fields and
// interface methods are not checked. Exempt are methods whose type
// implements a whole interface some loaded code declares or mentions
// that lists them (or named in implicitMethods), methods of types a
// public (non-internal, non-main) package re-exports by alias, and
// every declaration of a package only _test.go files import. Objects
// are matched across units by source position, since each unit
// type-checks its imports afresh. Run it over the whole module
// (./...): over a subset it reports exports whose users were not
// loaded.
func checkDeadExports(units []*unit) ([]finding, error) {
	if len(units) == 0 {
		return nil, nil
	}
	keys := posKeys{fset: units[0].fset, abs: map[string]string{}}
	testOnly, err := testOnlyPackages(units)
	if err != nil {
		return nil, err
	}
	ifaces := interfaceMethods(units)
	public := aliasedTypes(units, keys)

	decls := map[string]*deadDecl{}
	for _, u := range units {
		if !pathHasSegment(u.path, []string{"internal"}) || testOnly[u.path] {
			continue
		}
		for _, file := range u.files {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					kind := "func"
					if d.Recv != nil {
						kind = "method"
						fn, _ := u.info.Defs[d.Name].(*types.Func)
						if fn == nil || liveMethod(fn, ifaces, public, keys) {
							continue
						}
					}
					addDeadDecl(decls, keys, u, d.Name, kind, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								addDeadDecl(decls, keys, u, s.Name, "type", s)
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.IsExported() {
									addDeadDecl(decls, keys, u, name, d.Tok.String(), s)
								}
							}
						}
					}
				}
			}
		}
	}

	for _, u := range units {
		for id, obj := range u.info.Uses {
			if obj.Pkg() == nil {
				continue
			}
			k := keys.key(obj.Pos())
			d, ok := decls[k]
			if !ok {
				continue
			}
			use := u.fset.Position(id.Pos())
			if keys.absPath(use.Filename) == d.file && use.Offset >= d.start && use.Offset < d.end {
				continue // inside its own declaration
			}
			delete(decls, k)
		}
	}

	var out []finding
	for _, d := range decls {
		if d.u.allowedAt("deadexport", d.name.Pos()) {
			continue
		}
		out = append(out, finding{
			Analyzer: "deadexport",
			Pos:      d.u.posOf(d.name.Pos()),
			Msg: fmt.Sprintf("exported %s %s.%s has no reference outside its declaration in any non-test file; delete it or justify it with //ldvet:allow deadexport",
				d.kind, d.u.pkg.Name(), qualifiedName(d.u, d.name)),
		})
	}
	return out, nil
}

// addDeadDecl records a candidate declaration spanning node.
func addDeadDecl(decls map[string]*deadDecl, keys posKeys, u *unit, name *ast.Ident, kind string, node ast.Node) {
	start, end := u.fset.Position(node.Pos()), u.fset.Position(node.End())
	decls[keys.key(name.Pos())] = &deadDecl{
		u: u, name: name, kind: kind,
		file:  keys.absPath(start.Filename),
		start: start.Offset, end: end.Offset,
	}
}

// qualifiedName renders a method as Recv.Name and anything else as
// its plain name.
func qualifiedName(u *unit, name *ast.Ident) string {
	if fn, ok := u.info.Defs[name].(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named := receiverNamed(recv.Type()); named != nil {
				return named.Obj().Name() + "." + name.Name
			}
		}
	}
	return name.Name
}

// liveMethod reports whether a method is exempt: its receiver type
// is public API through an alias, or the type implements a whole
// interface the loaded code knows of that lists the method.
func liveMethod(fn *types.Func, ifaces map[string][]methodSet, public map[string]bool, keys posKeys) bool {
	if implicitMethods[fn.Name()] {
		return true
	}
	named := receiverNamed(fn.Type().(*types.Signature).Recv().Type())
	if named == nil {
		return false
	}
	if public[keys.key(named.Obj().Pos())] {
		return true
	}
	have := methodSet{}
	mset := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		have[m.Name()] = signatureKey(m.Type().(*types.Signature))
	}
	for _, iface := range ifaces[fn.Name()] {
		if have.implements(iface) {
			return true
		}
	}
	return false
}

// methodSet maps method names to signature keys.
type methodSet map[string]string

// implements reports whether s has every method of iface.
func (s methodSet) implements(iface methodSet) bool {
	for name, sig := range iface {
		if got, ok := s[name]; !ok || got != sig {
			return false
		}
	}
	return true
}

// receiverNamed strips pointers and aliases down to the named type.
func receiverNamed(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, _ := t.(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

// signatureKey renders a method signature without its receiver and
// parameter names, qualifying named types by package path, so
// signatures compare across units that type-checked the same package
// separately.
func signatureKey(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	tuple := func(t *types.Tuple) string {
		parts := make([]string, t.Len())
		for i := range parts {
			parts[i] = types.TypeString(t.At(i).Type(), qual)
		}
		return "(" + strings.Join(parts, ",") + ")"
	}
	key := tuple(sig.Params()) + tuple(sig.Results())
	if sig.Variadic() {
		key += "..."
	}
	return key
}

// interfaceMethods collects the method sets of every interface type
// reachable from a type the loaded code mentions: declared
// interfaces, and the ones in the signatures and fields of the types
// it uses (sort.Interface through sort.Sort, io.Writer through
// fmt.Fprintf, …), indexed by each of their method names.
func interfaceMethods(units []*unit) map[string][]methodSet {
	out := map[string][]methodSet{}
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			walk(t.Underlying())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		case *types.TypeParam:
			walk(t.Constraint())
		case *types.Interface:
			iface := methodSet{}
			for i := 0; i < t.NumMethods(); i++ {
				m := t.Method(i)
				sig := m.Type().(*types.Signature)
				iface[m.Name()] = signatureKey(sig)
				walk(sig)
			}
			for name := range iface {
				out[name] = append(out[name], iface)
			}
		}
	}
	for _, u := range units {
		for _, tv := range u.info.Types {
			walk(tv.Type)
		}
	}
	return out
}

// aliasedTypes returns the position keys of the named types a public
// package re-exports with an alias declaration; their methods are
// public API whether or not anything in the module calls them.
func aliasedTypes(units []*unit, keys posKeys) map[string]bool {
	out := map[string]bool{}
	for _, u := range units {
		if pathHasSegment(u.path, []string{"internal"}) || u.pkg.Name() == "main" {
			continue
		}
		scope := u.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() {
				continue
			}
			if named := receiverNamed(tn.Type()); named != nil {
				out[keys.key(named.Obj().Pos())] = true
			}
		}
	}
	return out
}

// testOnlyPackages returns the loaded units that no loaded non-test
// file imports but some _test.go file of a loaded directory does:
// test-support packages, whose exports exist for tests.
func testOnlyPackages(units []*unit) (map[string]bool, error) {
	imported := func(path string, imports []string) bool {
		for _, imp := range imports {
			if pathInScope(imp, []string{path}) {
				return true
			}
		}
		return false
	}
	var prodImports, testImports []string
	fset := token.NewFileSet()
	for _, u := range units {
		for _, p := range u.pkg.Imports() {
			prodImports = append(prodImports, p.Path())
		}
		tests, err := filepath.Glob(filepath.Join(u.dir, "*_test.go"))
		if err != nil {
			return nil, err
		}
		for _, name := range tests {
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, imp := range f.Imports {
				testImports = append(testImports, strings.Trim(imp.Path.Value, `"`))
			}
		}
	}
	out := map[string]bool{}
	for _, u := range units {
		if !imported(u.path, prodImports) && imported(u.path, testImports) {
			out[u.path] = true
		}
	}
	return out, nil
}

// posKeys renders a position as "absolute file:offset", the identity
// of a declaration shared by every unit that type-checked its file
// (the units and the source importer share one FileSet).
type posKeys struct {
	fset *token.FileSet
	abs  map[string]string // filename as parsed → absolute path
}

func (k posKeys) absPath(filename string) string {
	if a, ok := k.abs[filename]; ok {
		return a
	}
	a, err := filepath.Abs(filename)
	if err != nil {
		a = filename
	}
	k.abs[filename] = a
	return a
}

func (k posKeys) key(p token.Pos) string {
	pos := k.fset.Position(p)
	return fmt.Sprintf("%s:%d", k.absPath(pos.Filename), pos.Offset)
}
