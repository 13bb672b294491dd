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
	"resilience/faultinject.Schedule.CallOn":    "core and experiments tests schedule a panic or error at a call site",
	"resilience/faultinject.Schedule.CorruptOn": "core and experiments tests schedule a corrupted trace record",
	"resilience/faultinject.Schedule.Hits":      "core and experiments tests check how often a fault site fired",
	"pomtlb.Partition.SetEntries":               "core tests preload a POM-TLB partition",
	"config.Save":                               "cmd/pomsim tests write the config files they load",
	"pomtlb.DecodeEntry":                        "the codec fuzzer round-trips Entry.Encode through it",
	"perfmodel.CIdeal":                          "Equation 2, checked against Speedup's closed form",
	"perfmodel.PAvg":                            "Equation 3, checked against Speedup's closed form",
	"perfmodel.CScheme":                         "Equation 4, checked against Speedup's closed form",
	"oracle.NewScheduler":                       "FR-FCFS reference model the DRAM channel is tested against",
	"oracle.Scheduler.Run":                      "FR-FCFS reference model the DRAM channel is tested against",
	"oracle.RowBufferHitRate":                   "FR-FCFS reference model the DRAM channel is tested against",
	"oracle.AvgServiceLatency":                  "FR-FCFS reference model the DRAM channel is tested against",
	"trace.Collect":                             "server, workloads, faultinject and core tests drain a generator",
}

// TestNoTestOnlyExports fails for every exported function, method, type,
// const or var under internal/ that no non-test file of the module or of
// simbench/ reaches, other than the seams above. An identifier is reached
// when a non-test file refers to it from reached code: package main, an
// unexported declaration, or the declaration of a reached identifier. So
// a constructor that returns an unreached type does not keep that type.
// A method whose name some interface declares counts as reached, since
// it may be called through that interface. Struct fields are out of
// scope: they form the JSON output.
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

	ifaceMethods, err := l.interfaceMethods()
	if err != nil {
		t.Fatal(err)
	}
	candidates := map[types.Object]string{} // exported object under internal/ -> seam key
	var roots, seams []types.Object
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
				if ifaceMethods[m.Name()] {
					roots = append(roots, m)
				}
			}
		}
	}
	found := map[string]bool{}
	for obj, key := range candidates {
		found[key] = true
		if _, ok := testSeams[key]; ok {
			seams = append(seams, obj)
		}
	}
	for key := range testSeams {
		if !found[key] {
			t.Errorf("testSeams names %s, which is no longer an exported identifier", key)
		}
	}

	// refs[obj] lists the candidates obj's declaration refers to; a
	// reference from a declaration that declares no candidate is a root.
	refs := map[types.Object][]types.Object{}
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
			if _, ok := candidates[obj]; !ok {
				return true
			}
			if len(from) == 0 {
				roots = append(roots, obj)
			}
			for _, o := range from {
				refs[o] = append(refs[o], obj)
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

	production := reach(roots, refs)
	for _, obj := range seams {
		if production[obj] {
			t.Errorf("testSeams names %s, which production code reaches; drop it from the list", candidates[obj])
		}
	}
	// What a seam refers to stays with it.
	reached := reach(append(roots, seams...), refs)
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

// reach returns the closure of roots over refs.
func reach(roots []types.Object, refs map[types.Object][]types.Object) map[types.Object]bool {
	reached := map[types.Object]bool{}
	stack := append([]types.Object(nil), roots...)
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !reached[obj] {
			reached[obj] = true
			stack = append(stack, refs[obj]...)
		}
	}
	return reached
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

// interfaceMethods returns the method names of every interface type the
// module's non-test files spell out, plus those of error, fmt.Stringer,
// sort.Interface, heap.Interface and json.Marshaler, and Unwrap, which
// errors.Is and errors.As call through an interface of their own.
func (l *loader) interfaceMethods() (map[string]bool, error) {
	names := map[string]bool{"Unwrap": true}
	add := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, ref := range []struct{ pkg, name string }{
		{"fmt", "Stringer"}, {"sort", "Interface"}, {"container/heap", "Interface"}, {"encoding/json", "Marshaler"},
	} {
		pkg, err := l.std.Import(ref.pkg)
		if err != nil {
			return nil, err
		}
		add(pkg.Scope().Lookup(ref.name).Type())
	}
	for _, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					add(l.info.TypeOf(it))
				}
				return true
			})
		}
	}
	return names, nil
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}
