package stinspector

// The exported-surface gate, in four parts.
//
// Package level: every exported func, type, var and const declared in
// a non-test file under internal/ must be referenced from a non-test
// file outside its package, or be listed in surfaceExceptions with one
// of three reasons.
//
// Methods: every exported method declared in a non-test file under
// internal/ must be selected on its own receiver type in some non-test
// file, or be a method of an interface type declared in a non-test file
// that its type implements, or be a standard-library interface method
// (stdMethods); otherwise it is listed in methodExceptions with one of
// two reasons. Selectors are resolved with go/types, so a dead method
// that shares its name with a called method of another type is still
// flagged.
//
// Facade: every exported identifier declared in a non-test file of this
// package must be referenced from a non-test file of another package
// (cmd/, examples/, bench/), or be named by the signature or fields of
// one that is; otherwise it is listed in facadeExceptions with one of
// the package-level reasons.
//
// Unexported code: every unexported function and method declared in a
// non-test file outside the exempt packages must be used from a
// non-test file — referenced, selected (both resolved with go/types),
// or a method of an interface type declared in a non-test file that its
// type implements. There is no exception list: code only tests call
// belongs in a _test.go file. Constants and types are out of scope (a
// constant can name an enum's zero value that no code spells out).
//
// The scan covers the whole tree, the bench/ module and examples/
// included, so an identifier only the benchmark calls counts as used.
//
// To shrink a list: delete an entry, then unexport the identifier (or
// delete it, if nothing in its package uses it either) and run
// `go test -run TestExportedSurface .`. The test also fails on an entry
// that is no longer declared or has gained a user, so the lists can
// only shrink.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The three reasons an unused export may stay exported.
const (
	// The type appears in the signature or fields of an identifier
	// that is used outside its package, so callers hold its values.
	namedBySignature = "named by the signature or fields of an identifier used outside its package"
	// Callers tell this failure apart from others with errors.As.
	typedFault = "a typed fault callers match with errors.As"
	// Tests substitute a fake filesystem (fstest.MapFS, faultfs)
	// through it.
	fakeFSSeam = "a seam for tests to substitute a fake filesystem"
)

// surfaceExceptions lists the exports that have no outside user in
// non-test code but stay exported, keyed by "<package path under
// internal/>.<name>". It may only shrink.
var surfaceExceptions = map[string]string{
	"archive.CorruptError":       typedFault,
	"archive.Reader":             namedBySignature, // archive.Open returns it
	"dxt.ParseError":             typedFault,
	"dxt.Record":                 namedBySignature, // dxt.Parse and dxt.Stream
	"experiments.Check":          namedBySignature, // experiments.Report.Checks
	"mpisim.CostFunc":            namedBySignature, // mpisim.Syscall
	"mpisim.Engine":              namedBySignature, // mpisim.NewEngine returns it
	"pm.Variant":                 namedBySignature, // pm.Log.Variants returns it
	"render.EdgeStyle":           namedBySignature, // render.Styler
	"render.NodeStyle":           namedBySignature, // render.Styler
	"serve.Info":                 namedBySignature, // serve.Session.Info returns it
	"serve.SessionState":         namedBySignature, // serve.Info.State
	"snapshot/wire.CorruptError": typedFault,
	"strace.ParseError":          typedFault,
	"strace.StreamFS":            fakeFSSeam,
	"strace.TailFS":              fakeFSSeam,
	"strace.TailFile":            fakeFSSeam,
	"strace.Writer":              namedBySignature, // strace.NewWriter returns it
	"workloads.Result":           namedBySignature, // workloads.Checkpoint and friends
}

// facadeExceptions lists the exports of this package that no non-test
// code of another package references, directly or through the
// signature of one it references, but that stay exported, keyed by
// name, with one of the package-level reasons. It may only shrink.
var facadeExceptions = map[string]string{
	"ActivityStats":   namedBySignature, // Stats.Get returns it
	"BehaviorProfile": namedBySignature, // StreamResult.Behavior, Inspector.Behavior
	"Class":           namedBySignature, // Partition.Node returns it
	"Edge":            namedBySignature, // DFG.Edges returns it
	"FootprintDiff":   namedBySignature, // Footprint.Diff returns it
	"Relation":        namedBySignature, // Footprint.Relation returns it
}

// The two reasons an exported method no non-test code calls may stay
// exported.
const (
	// Tests read or build through it state that no production entry
	// point exposes.
	testProbe = "a probe tests use to read or build stored state"
	// Tests compare an optimized path against it.
	testReference = "a reference implementation tests compare against"
)

// methodExceptions lists the exported methods that no non-test code
// selects but that stay exported, keyed by "<package path under
// internal/>.<receiver type>.<method>". It may only shrink.
var methodExceptions = map[string]string{
	"dfg.Graph.AddEdge":       testProbe,
	"dfg.Graph.AddNode":       testProbe,
	"dfg.Graph.NumTraces":     testProbe,
	"pm.Log.MappedEvents":     testProbe,
	"pm.Log.NumTraces":        testProbe,
	"pm.Log.UnmappedEvents":   testProbe,
	"trace.EventLog.Validate": testProbe,
}

// stdMethods names the methods of the standard-library interfaces that
// types under internal/ implement: fmt.Stringer, error and the
// errors.Unwrap protocol, http.Handler, sort.Interface and
// heap.Interface.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// surfaceExempt names the test-support packages the gate skips: they
// exist to generate inputs and inject faults for tests.
var surfaceExempt = map[string]bool{
	"faultfs":        true,
	"race":           true,
	"synth":          true,
	"synth/profiles": true,
}

func TestExportedSurface(t *testing.T) {
	s := scanSurface(t, ".")
	packageReasons := func(reason string) bool {
		return reason == namedBySignature || reason == typedFault || reason == fakeFSSeam
	}

	var unused []string
	for id := range s.declared {
		pkg, _, _ := strings.Cut(id, ".")
		if surfaceExempt[pkg] || s.used[id] {
			continue
		}
		if _, listed := surfaceExceptions[id]; !listed {
			unused = append(unused, id)
		}
	}
	sort.Strings(unused)
	for _, id := range unused {
		t.Errorf("internal/%s is exported but no non-test code outside its package uses it: unexport or delete it", id)
	}
	for id, reason := range surfaceExceptions {
		switch {
		case !packageReasons(reason):
			t.Errorf("surfaceExceptions[%q]: reason %q is not one of the three allowed", id, reason)
		case !s.declared[id]:
			t.Errorf("surfaceExceptions[%q]: no longer declared; delete the entry", id)
		case s.used[id]:
			t.Errorf("surfaceExceptions[%q]: now used outside its package; delete the entry", id)
		}
	}
	if len(s.declared) == 0 {
		t.Fatal("scan found no exported identifiers under internal/")
	}
	t.Logf("%d exported package-level identifiers under internal/, %d listed exceptions", len(s.declared), len(surfaceExceptions))

	var uncalled []string
	for id := range s.methods {
		if _, listed := methodExceptions[id]; !listed && !s.called[id] {
			uncalled = append(uncalled, id)
		}
	}
	sort.Strings(uncalled)
	for _, id := range uncalled {
		t.Errorf("internal/%s is an exported method but no non-test code calls it: unexport or delete it", id)
	}
	for id, reason := range methodExceptions {
		switch {
		case reason != testProbe && reason != testReference:
			t.Errorf("methodExceptions[%q]: reason %q is not one of the two allowed", id, reason)
		case !s.methods[id]:
			t.Errorf("methodExceptions[%q]: no longer declared; delete the entry", id)
		case s.called[id]:
			t.Errorf("methodExceptions[%q]: now called from non-test code; delete the entry", id)
		}
	}
	if len(s.methods) == 0 {
		t.Fatal("scan found no exported methods under internal/")
	}
	t.Logf("%d exported methods under internal/, %d listed exceptions", len(s.methods), len(methodExceptions))

	var idle []string
	for name := range s.facade {
		if _, listed := facadeExceptions[name]; !listed && !s.facadeUsed[name] {
			idle = append(idle, name)
		}
	}
	sort.Strings(idle)
	for _, name := range idle {
		t.Errorf("stinspector.%s is exported but no non-test code of another package uses it: delete it", name)
	}
	for name, reason := range facadeExceptions {
		switch {
		case !packageReasons(reason):
			t.Errorf("facadeExceptions[%q]: reason %q is not one of the three allowed", name, reason)
		case !s.facade[name]:
			t.Errorf("facadeExceptions[%q]: no longer declared; delete the entry", name)
		case s.facadeUsed[name]:
			t.Errorf("facadeExceptions[%q]: now used outside the package; delete the entry", name)
		}
	}
	if len(s.facade) == 0 {
		t.Fatal("scan found no exported identifiers in the facade")
	}
	t.Logf("%d exported identifiers in the facade, %d listed exceptions", len(s.facade), len(facadeExceptions))

	var dead []string
	for fn, id := range s.private {
		if !s.privateUsed[fn] {
			dead = append(dead, id)
		}
	}
	sort.Strings(dead)
	for _, id := range dead {
		t.Errorf("%s is unexported but no non-test code uses it: delete it, or move it into a _test.go file if tests need it", id)
	}
	if len(s.private) == 0 {
		t.Fatal("scan found no unexported functions or methods")
	}
	t.Logf("%d unexported functions and methods", len(s.private))
}

// surface is what scanSurface finds. Package-level identifiers are
// keyed "<package path under internal/>.<name>", methods "<package path
// under internal/>.<receiver type>.<name>" and facade identifiers by
// their name.
type surface struct {
	// declared holds the exported package-level identifiers of non-test
	// files under internal/; used, the ones non-test files of other
	// packages reference.
	declared, used map[string]bool
	// methods holds the exported methods of non-test files under
	// internal/, outside the packages surfaceExempt names; called, the
	// ones non-test code uses (see the file comment).
	methods, called map[string]bool
	// facade holds the exported identifiers of this package's non-test
	// files; facadeUsed, the ones non-test files of other packages
	// reference, closed over the facade names in their declarations'
	// types and signatures.
	facade, facadeUsed map[string]bool
	// private maps the unexported functions and methods of non-test
	// files outside the packages surfaceExempt names to their
	// "<package path>.[<receiver type>.]<name>"; privateUsed holds the
	// ones non-test code uses.
	private     map[*types.Func]string
	privateUsed map[*types.Func]bool
}

// scanSurface parses and type-checks every non-test Go file under root
// that the default build context selects.
func scanSurface(t *testing.T, root string) *surface {
	t.Helper()
	const module = "stinspector"
	const internal = module + "/internal/"
	type parsed struct {
		pkg string // import path
		f   *ast.File
	}
	fset := token.NewFileSet()
	var files []parsed
	pkgFiles := map[string][]*ast.File{} // import path -> files
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		files = append(files, parsed{pkg, f})
		pkgFiles[pkg] = append(pkgFiles[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	info := typeCheck(t, fset, pkgFiles)

	s := &surface{
		declared: map[string]bool{}, used: map[string]bool{},
		methods: map[string]bool{}, called: map[string]bool{},
		facade: map[string]bool{}, facadeUsed: map[string]bool{},
		private: map[*types.Func]string{}, privateUsed: map[*types.Func]bool{},
	}
	declare := func(pkg string, id *ast.Ident) {
		if id.IsExported() {
			s.declared[strings.TrimPrefix(pkg, internal)+"."+id.Name] = true
		}
	}
	facadeTypes := map[string][]ast.Expr{} // facade name -> its declared type or signature
	declareFacade := func(id *ast.Ident, typ ast.Expr) {
		if id.IsExported() {
			s.facade[id.Name] = true
			if typ != nil {
				facadeTypes[id.Name] = append(facadeTypes[id.Name], typ)
			}
		}
	}
	methodTypes := map[string]*types.Named{} // method id -> its receiver type
	for _, p := range files {
		pkg, inInternal := strings.CutPrefix(p.pkg, internal)
		for _, d := range p.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() && !surfaceExempt[pkg] && !(d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main")) {
					fn := info.Defs[d.Name].(*types.Func)
					id := strings.TrimPrefix(p.pkg, module+"/") + "."
					if d.Recv != nil {
						id += namedRecv(fn).Obj().Name() + "."
					}
					s.private[fn] = id + d.Name.Name
				}
				switch {
				case p.pkg == module && d.Recv == nil:
					declareFacade(d.Name, d.Type)
				case !inInternal:
				case d.Recv == nil:
					declare(p.pkg, d.Name)
				case d.Name.IsExported() && !surfaceExempt[pkg]:
					fn := info.Defs[d.Name].(*types.Func)
					id := methodID(fn, internal)
					s.methods[id] = true
					methodTypes[id] = namedRecv(fn)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if p.pkg == module {
							declareFacade(spec.Name, spec.Type)
						} else if inInternal {
							declare(p.pkg, spec.Name)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if p.pkg == module {
								declareFacade(n, spec.Type)
							} else if inInternal {
								declare(p.pkg, n)
							}
						}
					}
				}
			}
		}
	}

	var ifaces []*types.Interface // interface types of non-test files
	for _, p := range files {
		imports := map[string]string{} // local name -> import path
		for _, is := range p.f.Imports {
			path := strings.Trim(is.Path.Value, `"`)
			if path == p.pkg || (path != module && !strings.HasPrefix(path, internal)) {
				continue
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if files := pkgFiles[path]; len(files) > 0 {
				name = files[0].Name.Name
			}
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = path
		}
		ast.Inspect(p.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					switch path, ok := imports[x.Name]; {
					case !ok:
					case path == module:
						s.facadeUsed[n.Sel.Name] = true
					default:
						s.used[strings.TrimPrefix(path, internal)+"."+n.Sel.Name] = true
					}
				}
				if sel, ok := info.Selections[n]; ok {
					if fn, ok := sel.Obj().(*types.Func); ok {
						if id := methodID(fn, internal); id != "" {
							s.called[id] = true
						}
						s.privateUsed[fn.Origin()] = true
					}
				}
			case *ast.Ident:
				if fn, ok := info.Uses[n].(*types.Func); ok {
					s.privateUsed[fn.Origin()] = true
				}
			case *ast.InterfaceType:
				if tv, ok := info.Types[n]; ok {
					ifaces = append(ifaces, tv.Type.Underlying().(*types.Interface))
				}
			}
			return true
		})
	}

	for id, named := range methodTypes {
		name := id[strings.LastIndex(id, ".")+1:]
		if stdMethods[name] || implementsWith(named, name, ifaces) {
			s.called[id] = true
		}
	}
	for fn := range s.private {
		if fn.Type().(*types.Signature).Recv() != nil && implementsWith(namedRecv(fn), fn.Name(), ifaces) {
			s.privateUsed[fn] = true
		}
	}

	work := make([]string, 0, len(s.facadeUsed))
	for name := range s.facadeUsed {
		work = append(work, name)
	}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		for _, typ := range facadeTypes[name] {
			ast.Inspect(typ, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					return false // a name qualified by another package
				case *ast.Ident:
					if s.facade[n.Name] && !s.facadeUsed[n.Name] {
						s.facadeUsed[n.Name] = true
						work = append(work, n.Name)
					}
				}
				return true
			})
		}
	}
	return s
}

// typeCheck type-checks the given non-test files of every package in
// the tree, keyed by import path, and returns what the checker
// recorded. Standard-library imports come from the compiler's export
// data, located by one `go list -export` for all of them.
func typeCheck(t *testing.T, fset *token.FileSet, pkgFiles map[string][]*ast.File) *types.Info {
	t.Helper()
	std := map[string]bool{}
	for _, files := range pkgFiles {
		for _, f := range files {
			for _, is := range f.Imports {
				if path := strings.Trim(is.Path.Value, `"`); pkgFiles[path] == nil && path != "unsafe" {
					std[path] = true
				}
			}
		}
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		exports[path] = file
	}
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		files, ok := pkgFiles[path]
		if !ok {
			return stdImporter.Import(path)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		return pkg, nil
	}
	for path := range pkgFiles {
		if _, err := imp(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	return info
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// namedRecv returns the named type a method is declared on.
func namedRecv(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// methodID keys a method declared on a named non-interface type under
// internal/ "<package path under internal/>.<receiver type>.<name>"; it
// returns "" for any other function.
func methodID(fn *types.Func, internal string) string {
	fn = fn.Origin()
	if fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() == nil {
		return ""
	}
	pkg, ok := strings.CutPrefix(fn.Pkg().Path(), internal)
	named := namedRecv(fn)
	if !ok || named == nil || types.IsInterface(named) {
		return ""
	}
	return pkg + "." + named.Obj().Name() + "." + fn.Name()
}

// implementsWith reports whether named or a pointer to it implements
// one of ifaces that has a method called name, so calls through that
// interface reach the method. A generic type matches by name alone.
func implementsWith(named *types.Named, name string, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, name); obj == nil {
			continue
		}
		if named.TypeParams().Len() > 0 || iface.IsImplicit() ||
			types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}
