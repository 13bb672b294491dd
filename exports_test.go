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

// testSeams are the exported identifiers under internal/ that only tests
// reach, kept on purpose. Each key is the package path below internal/,
// then the name; each value says why the identifier stays.
var testSeams = map[string]string{
	"config.Save":              "cmd/pomsim tests write the config files they load",
	"perfmodel.CIdeal":         "Equation 2, checked against Speedup's closed form",
	"perfmodel.PAvg":           "Equation 3, checked against Speedup's closed form",
	"perfmodel.CScheme":        "Equation 4, checked against Speedup's closed form",
	"oracle.NewScheduler":      "FR-FCFS reference model the DRAM channel is tested against",
	"oracle.Scheduler.Run":     "FR-FCFS reference model the DRAM channel is tested against",
	"oracle.RowBufferHitRate":  "FR-FCFS reference model the DRAM channel is tested against",
	"oracle.AvgServiceLatency": "FR-FCFS reference model the DRAM channel is tested against",
	"trace.Collect":            "server, workloads and core tests drain a generator",
	"core.Scheme.Holds":        "the conformance suite probes every registered scheme's residency",
	"core.Scheme.Seeds":        "the conformance suite probes every registered scheme's residency",
}

// TestNoTestOnlyExports fails for every exported function, method, type,
// const or var under internal/ that no non-test file of the module or of
// simbench/ reaches, other than the seams above. An identifier is reached
// when a non-test file refers to it from reached code: package main, an
// unexported declaration, or the declaration of a reached identifier. So
// a constructor that returns an unreached type does not keep that type.
// A method is also reached when its receiver type is live (unexported,
// or itself reached) and reached code calls a method of that name
// through an interface value; the standard library calls String, Error,
// Unwrap, MarshalJSON and the sort and heap methods that way. A seam may
// name an interface method: it counts as a call of that name, so every
// live type's method of that name, the interface's implementations among
// them, is a seam too. Struct fields are out of scope: they form the
// JSON output.
func TestNoTestOnlyExports(t *testing.T) {
	l := &loader{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
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
	candidates := map[types.Object]string{} // exported object under internal/ -> seam key
	ifaceMethods := map[string]string{}     // interface method under internal/ -> its name
	for _, p := range paths {
		rel, ok := strings.CutPrefix(p, "repro/internal/")
		if !ok {
			continue
		}
		scope := l.pkgs[p].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				candidates[obj] = rel + "." + name
			}
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
				if !m.Exported() {
					continue
				}
				candidates[m] = rel + "." + name + "." + m.Name()
				g.methods[m.Name()] = append(g.methods[m.Name()], m)
				if tn.Exported() {
					g.recv[m] = tn
				}
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
			t.Errorf("testSeams names %s, which is no longer an exported identifier", key)
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
		if reached[obj] {
			continue
		}
		pos := l.fset.Position(obj.Pos())
		unreached = append(unreached, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, key[strings.Index(key, ".")+1:]))
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d exported identifiers under internal/ are reached only from tests; delete them, "+
			"move them into the package's _test.go files, or name them in testSeams:\n%s",
			len(unreached), strings.Join(unreached, "\n"))
	}
}

// callGraph is what the guard knows of the candidates' declarations.
type callGraph struct {
	refs    map[types.Object][]types.Object // candidate -> candidates its declaration refers to
	calls   map[types.Object][]string       // candidate -> methods it calls through interfaces
	methods map[string][]*types.Func        // name -> exported methods of that name
	recv    map[*types.Func]*types.TypeName // method -> its exported receiver type
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
			if tn, ok := g.recv[m]; !ok || reached[tn] {
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

// loader parses and type-checks the module's non-test files, importing
// standard-library packages from compiler export data.
type loader struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> non-test files
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

// parseTree parses every non-test Go file below root. A directory's
// import path is "repro/" plus its path: simbench/ is module
// repro/simbench.
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro/" + filepath.ToSlash(filepath.Dir(path))
		l.files[pkg] = append(l.files[pkg], f)
		return nil
	})
}

// Import implements types.Importer: module packages are type-checked
// from the parsed files, everything else comes from export data.
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

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}
