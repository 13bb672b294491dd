package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSeams are the declarations under internal/ that only tests reach,
// kept on purpose. Each key is the package path below internal/, then the
// name; each value says why the declaration stays.
var testSeams = map[string]string{
	"config.Save":       "cmd/pomsim tests write the config files they load",
	"trace.Collect":     "server, workloads and core tests drain a generator",
	"core.Scheme.Holds": "the conformance suite probes every registered scheme's residency",
	"core.Scheme.Seeds": "the conformance suite probes every registered scheme's residency",
}

// rendered are the structs under internal/ whose fields production writes
// for encoding/json to read: each field is part of an output, so no Go
// code needs to read it back. Each key is the package path below
// internal/, then the type's name; each value names the output.
var rendered = map[string]string{
	"core.Result":                 "pomsim -json, journal done records and pomsimd session metrics",
	"server.SessionMetrics":       "pomsimd's GET /sessions/{id} body",
	"experiments.sweepRecord":     "each line of the sweep journal",
	"experiments.manifest":        "the quarantine manifest experiments -manifest writes",
	"experiments.QuarantinedCell": "an entry of the quarantine manifest",
}

// TestNoTestOnlyExports holds the code under internal/ to what production
// uses. It checks three rules.
//
// Reached: every package-level function, method, type, const and var
// under internal/, exported or not, is reached from a non-test file of
// the module or of simbench/, or is named in testSeams. A declaration is
// reached when reached code refers to it: package main and the other
// packages outside internal/, init functions and blank declarations are
// reached, and so is the declaration of a reached name. So a constructor
// that returns an unreached type does not keep that type. A method is
// also reached when its receiver type is reached and reached code calls
// a method of that name through an interface value; the standard library
// calls String, Error, Unwrap, MarshalJSON and the sort and heap methods
// that way. A seam may name an interface method: it counts as a call of
// that name, so every reached type's method of that name, the interface's
// implementations among them, is a seam too.
//
// Seams serve other packages: a seam that is not an interface method is
// referred to by the tests of some other package. One that only its own
// package's tests call belongs in that package's _test.go files.
//
// Written means read: every field of a package-level struct under
// internal/ is read by non-test code, where assigning to a field, ++ and
// -- do not count as reads. So a field production only writes fails, and
// so does one only tests set. Embedded fields are exempt, and so are the
// fields of a struct that non-test code compares whole (==, !=, switch)
// or uses as a map key, with the structs it holds by value, and of a
// struct named in rendered, with every struct it holds.
func TestNoTestOnlyExports(t *testing.T) {
	l := &loader{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		tests: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.Default(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	for _, root := range []string{"internal", "cmd", "simbench"} {
		if err := l.parseTree(root); err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, 0, len(l.files))
	for p := range l.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	g := &callGraph{
		refs:    map[types.Object][]types.Object{},
		calls:   map[types.Object][]string{},
		methods: map[string][]*types.Func{},
		recv:    map[*types.Func]*types.TypeName{},
	}
	candidates := map[types.Object]string{} // declaration under internal/ -> its key
	ifaceMethods := map[string]string{}     // interface method under internal/ -> its name
	for _, p := range paths {
		rel, ok := strings.CutPrefix(p, "repro/internal/")
		if !ok {
			continue
		}
		scope := l.pkgs[p].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			candidates[obj] = rel + "." + name
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					m := it.ExplicitMethod(i)
					ifaceMethods[rel+"."+name+"."+m.Name()] = m.Name()
				}
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				candidates[m] = rel + "." + name + "." + m.Name()
				g.methods[m.Name()] = append(g.methods[m.Name()], m)
				g.recv[m] = tn
			}
		}
	}
	var seams []types.Object
	var seamCalls []string
	found := map[string]bool{}
	for obj, key := range candidates {
		found[key] = true
		if _, ok := testSeams[key]; ok {
			seams = append(seams, obj)
		}
	}
	for key, name := range ifaceMethods {
		found[key] = true
		if _, ok := testSeams[key]; ok {
			seamCalls = append(seamCalls, name)
		}
	}
	for key := range testSeams {
		if !found[key] {
			t.Errorf("testSeams names %s, which is no longer a declaration under internal/", key)
		}
	}

	// refs[obj] lists the candidates obj's declaration refers to and
	// calls[obj] the methods it calls through interfaces; a reference or
	// call from a declaration that declares no candidate is a root.
	var roots []types.Object
	rootCalls := append([]string(nil), stdCalls...)
	scan := func(n ast.Node, names ...*ast.Ident) {
		var from []types.Object
		for _, id := range names {
			if _, ok := candidates[l.info.Defs[id]]; ok {
				from = append(from, l.info.Defs[id])
			}
		}
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := origin(l.info.Uses[id])
			if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
				if len(from) == 0 {
					rootCalls = append(rootCalls, fn.Name())
				}
				for _, o := range from {
					g.calls[o] = append(g.calls[o], fn.Name())
				}
				return true
			}
			if _, ok := candidates[obj]; !ok {
				return true
			}
			if len(from) == 0 {
				roots = append(roots, obj)
			}
			for _, o := range from {
				g.refs[o] = append(g.refs[o], obj)
			}
			return true
		})
	}
	for _, p := range paths {
		for _, f := range l.files[p] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					scan(d, d.Name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							scan(s, s.Name)
						case *ast.ValueSpec:
							scan(s, s.Names...)
						}
					}
				}
			}
		}
	}

	production, productionCalls := g.reach(roots, rootCalls)
	for _, obj := range seams {
		if production[obj] {
			t.Errorf("testSeams names %s, which production code reaches; drop it from the list", candidates[obj])
		}
	}
	for key, name := range ifaceMethods {
		if _, ok := testSeams[key]; ok && productionCalls[name] {
			t.Errorf("testSeams names %s, which production code calls through an interface; drop it from the list", key)
		}
	}
	// What a seam refers to or calls stays with it.
	reached, _ := g.reach(append(roots, seams...), append(rootCalls, seamCalls...))
	var unreached []string
	for obj, key := range candidates {
		if !reached[obj] {
			unreached = append(unreached, l.where(obj.Pos(), key))
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d declarations under internal/ are reached only from tests; delete them, "+
			"move them into the package's _test.go files, or name them in testSeams:\n%s",
			len(unreached), strings.Join(unreached, "\n"))
	}

	tested, err := l.testRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range seams {
		if !tested[obj] {
			t.Errorf("testSeams names %s, which no other package's tests call; move it into its package's _test.go files", candidates[obj])
		}
	}

	checkFieldsRead(t, l, candidates)
}

// checkFieldsRead fails for every field of a package-level struct under
// internal/ that non-test code never reads, other than those the
// exemptions on TestNoTestOnlyExports cover.
func checkFieldsRead(t *testing.T, l *loader, candidates map[types.Object]string) {
	owner := map[*types.Var]*types.TypeName{} // field -> its struct
	byKey := map[string]*types.TypeName{}     // struct key -> its struct
	for obj, key := range candidates {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		byKey[key] = tn
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); !f.Embedded() && f.Name() != "_" {
				owner[f] = tn
			}
		}
	}

	// exempt holds the structs read whole: those compared or used as map
	// keys with the structs and arrays they hold by value, and the
	// rendered structs with every struct they hold. The rendered ones go
	// first, so a struct both rendered and compared is followed deep.
	exempt := map[*types.TypeName]bool{}
	var readWhole func(typ types.Type, deep bool)
	readWhole = func(typ types.Type, deep bool) {
		if n, ok := typ.(*types.Named); ok {
			if exempt[n.Origin().Obj()] {
				return
			}
			exempt[n.Origin().Obj()] = true
		}
		switch u := typ.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				readWhole(u.Field(i).Type(), deep)
			}
		case *types.Array:
			readWhole(u.Elem(), deep)
		case *types.Slice:
			if deep {
				readWhole(u.Elem(), deep)
			}
		case *types.Map:
			if deep {
				readWhole(u.Elem(), deep)
			}
		case *types.Pointer:
			if deep {
				readWhole(u.Elem(), deep)
			}
		}
	}
	for key := range rendered {
		if tn, ok := byKey[key]; ok {
			readWhole(tn.Type(), true)
		} else {
			t.Errorf("rendered names %s, which is no longer a struct under internal/", key)
		}
	}

	read := map[*types.Var]bool{}
	for _, files := range l.files {
		for _, f := range files {
			assigned := map[ast.Node]bool{} // selectors written to, not read
			compare := func(e ast.Expr) {
				if tv, ok := l.info.Types[e]; ok {
					readWhole(tv.Type, false)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						assigned[ast.Unparen(e)] = true
					}
				case *ast.IncDecStmt:
					assigned[ast.Unparen(n.X)] = true
				case *ast.SelectorExpr:
					if v, ok := l.info.Uses[n.Sel].(*types.Var); ok && v.IsField() && !assigned[n] {
						read[v.Origin()] = true
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						compare(n.X)
						compare(n.Y)
					}
				case *ast.SwitchStmt:
					if n.Tag != nil {
						compare(n.Tag)
					}
				case *ast.MapType:
					compare(n.Key)
				}
				return true
			})
		}
	}

	var unread []string
	for v, tn := range owner {
		if !read[v] && !exempt[tn] {
			unread = append(unread, l.where(v.Pos(), candidates[tn]+"."+v.Name()))
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d struct fields under internal/ are never read by non-test code; "+
			"delete them with the code that fills them, or name their struct in rendered:\n%s",
			len(unread), strings.Join(unread, "\n"))
	}
}

// callGraph is what the guard knows of the candidates' declarations.
type callGraph struct {
	refs    map[types.Object][]types.Object // candidate -> candidates its declaration refers to
	calls   map[types.Object][]string       // candidate -> methods it calls through interfaces
	methods map[string][]*types.Func        // name -> methods of that name
	recv    map[*types.Func]*types.TypeName // method -> its receiver type
}

// reach returns what roots and calls reach, and the method names reached
// code calls through interfaces. Reaching a type or a call can make a
// method live and so add the references and calls of its declaration;
// the worklist runs until nothing new is reached.
func (g *callGraph) reach(roots []types.Object, calls []string) (map[types.Object]bool, map[string]bool) {
	reached := map[types.Object]bool{}
	called := map[string]bool{}
	stack := append([]types.Object(nil), roots...)
	call := func(name string) {
		if called[name] {
			return
		}
		called[name] = true
		for _, m := range g.methods[name] {
			if reached[g.recv[m]] {
				stack = append(stack, m)
			}
		}
	}
	for _, name := range calls {
		call(name)
	}
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		stack = append(stack, g.refs[obj]...)
		for _, name := range g.calls[obj] {
			call(name)
		}
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); called[m.Name()] {
						stack = append(stack, m)
					}
				}
			}
		}
	}
	return reached, called
}

// loader parses and type-checks the module's Go files, importing
// standard-library packages from compiler export data.
type loader struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> non-test files
	tests map[string][]*ast.File // import path -> test files
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

// parseTree parses every Go file below root. A directory's import path is
// "repro/" plus its path: simbench/ is module repro/simbench.
func (l *loader) parseTree(root string) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro/" + filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(path, "_test.go") {
			l.tests[pkg] = append(l.tests[pkg], f)
		} else {
			l.files[pkg] = append(l.files[pkg], f)
		}
		return nil
	})
}

// Import implements types.Importer: module packages are type-checked
// from the parsed non-test files, everything else comes from export data.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	files, ok := l.files[path]
	if !ok {
		return l.std.Import(path)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// testRefs type-checks every package's test files and returns the
// declarations under internal/ that some other package's tests refer to.
// External test packages import the package itself without its test
// files, as the other packages they import do.
func (l *loader) testRefs() (map[types.Object]bool, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	for path, tests := range l.tests {
		pkgs := map[string][]*ast.File{}
		for _, f := range tests {
			name := path
			if strings.HasSuffix(f.Name.Name, "_test") {
				name += "_test"
			} else if pkgs[name] == nil {
				pkgs[name] = append([]*ast.File(nil), l.files[path]...)
			}
			pkgs[name] = append(pkgs[name], f)
		}
		for name, files := range pkgs {
			conf := types.Config{Importer: l}
			if _, err := conf.Check(name, l.fset, files, info); err != nil {
				return nil, err
			}
		}
	}
	refs := map[types.Object]bool{}
	for id, obj := range info.Uses {
		file := l.fset.Position(id.Pos()).Filename
		if strings.HasSuffix(file, "_test.go") && obj.Pkg() != nil && obj.Pkg().Path() != "repro/"+filepath.ToSlash(filepath.Dir(file)) {
			refs[origin(obj)] = true
		}
	}
	return refs, nil
}

// where renders a finding as file:line and the key without its package.
func (l *loader) where(pos token.Pos, key string) string {
	p := l.fset.Position(pos)
	return fmt.Sprintf("%s:%d %s", p.Filename, p.Line, key[strings.Index(key, ".")+1:])
}

// stdCalls are the methods the standard library calls through
// interfaces of its own: those of error, fmt.Stringer, json.Marshaler,
// sort.Interface and heap.Interface, and Unwrap, which errors.Is and
// errors.As call.
var stdCalls = []string{"Error", "String", "MarshalJSON", "Len", "Less", "Swap", "Push", "Pop", "Unwrap"}

// isInterfaceMethod reports whether fn is declared by an interface, so
// that a call of it is dispatched at run time.
func isInterfaceMethod(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	return sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}
