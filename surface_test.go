package stinspector

// The exported-surface gate, in four parts.
//
// Package level: every exported func, type, var and const declared in
// a non-test file under internal/ must be referenced from a non-test
// file outside its package, or be a type named by the signature or
// exported fields of a used identifier or a used method (see
// namedBySignature), or be listed in surfaceExceptions with one of two
// reasons.
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
// (cmd/, examples/, bench/), or name a type that the signature or
// exported fields of such an identifier or of a used method name, by
// the same rule as the package level. There is no exception list.
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
// only shrink. Being named by a signature is derived, not listed: when
// the last user of that signature goes, the type it named is flagged.

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

// The two reasons an unused export may stay exported.
const (
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
	"dxt.ParseError":    typedFault,
	"strace.ParseError": typedFault,
	"strace.StreamFS":   fakeFSSeam,
	"strace.TailFS":     fakeFSSeam,
	"wire.CorruptError": typedFault,
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
		case reason != typedFault && reason != fakeFSSeam:
			t.Errorf("surfaceExceptions[%q]: reason %q is not one of the two allowed", id, reason)
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
		if !s.facadeUsed[name] {
			idle = append(idle, name)
		}
	}
	sort.Strings(idle)
	for _, name := range idle {
		t.Errorf("stinspector.%s is exported but no non-test code of another package uses it: delete it", name)
	}
	if len(s.facade) == 0 {
		t.Fatal("scan found no exported identifiers in the facade")
	}
	t.Logf("%d exported identifiers in the facade", len(s.facade))

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
	// packages reference, and the types namedBySignature reaches from
	// those and from the called methods.
	declared, used map[string]bool
	// methods holds the exported methods of non-test files under
	// internal/, outside the packages surfaceExempt names; called, the
	// ones non-test code uses (see the file comment).
	methods, called map[string]bool
	// facade holds the exported identifiers of this package's non-test
	// files; facadeUsed, the ones non-test files of other packages
	// reference, and the ones naming a type namedBySignature reaches
	// from those and from the called methods.
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
	objs := map[string]types.Object{}       // declared id -> its object
	facadeObjs := map[string]types.Object{} // facade name -> its object
	declare := func(pkg string, id *ast.Ident) {
		if id.IsExported() {
			key := strings.TrimPrefix(pkg, internal) + "." + id.Name
			s.declared[key] = true
			objs[key] = info.Defs[id]
		}
	}
	declareFacade := func(id *ast.Ident) {
		if id.IsExported() {
			s.facade[id.Name] = true
			facadeObjs[id.Name] = info.Defs[id]
		}
	}
	methodFuncs := map[string]*types.Func{} // method id -> the method
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
					declareFacade(d.Name)
				case !inInternal:
				case d.Recv == nil:
					declare(p.pkg, d.Name)
				case d.Name.IsExported() && !surfaceExempt[pkg]:
					fn := info.Defs[d.Name].(*types.Func)
					id := methodID(fn, internal)
					s.methods[id] = true
					methodFuncs[id] = fn
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if p.pkg == module {
							declareFacade(spec.Name)
						} else if inInternal {
							declare(p.pkg, spec.Name)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if p.pkg == module {
								declareFacade(n)
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

	for id, fn := range methodFuncs {
		if stdMethods[fn.Name()] || implementsWith(namedRecv(fn), fn.Name(), ifaces) {
			s.called[id] = true
		}
	}
	for fn := range s.private {
		if fn.Type().(*types.Signature).Recv() != nil && implementsWith(namedRecv(fn), fn.Name(), ifaces) {
			s.privateUsed[fn] = true
		}
	}

	var called []types.Object
	for id, fn := range methodFuncs {
		if s.called[id] {
			called = append(called, fn)
		}
	}
	var used []types.Object
	for id := range s.used {
		if obj := objs[id]; obj != nil {
			used = append(used, obj)
		}
	}
	reached := namedBySignature(append(used, called...))
	for id, obj := range objs {
		if tn, ok := obj.(*types.TypeName); ok && reached[tn] {
			s.used[id] = true
		}
	}
	var facadeUsed []types.Object
	for name := range s.facadeUsed {
		facadeUsed = append(facadeUsed, facadeObjs[name])
	}
	reached = namedBySignature(append(facadeUsed, called...))
	for name, obj := range facadeObjs {
		if _, ok := obj.(*types.TypeName); !ok {
			continue
		}
		if named, ok := types.Unalias(obj.Type()).(*types.Named); ok && reached[named.Obj()] {
			s.facadeUsed[name] = true
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

// namedBySignature returns the type names that callers of seeds hold
// values of: the types named by the signature of a seed function or
// method, by the type of a seed type, variable or constant, and, in
// turn, by the exported fields and methods of the structs and
// interfaces among them.
func namedBySignature(seeds []types.Object) map[*types.TypeName]bool {
	reached := map[*types.TypeName]bool{}
	var work []types.Type
	for _, obj := range seeds {
		work = append(work, obj.Type())
	}
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			if !reached[t.Obj()] {
				reached[t.Obj()] = true
				work = append(work, t.Underlying())
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				work = append(work, t.TypeArgs().At(i))
			}
		case *types.Pointer:
			work = append(work, t.Elem())
		case *types.Slice:
			work = append(work, t.Elem())
		case *types.Array:
			work = append(work, t.Elem())
		case *types.Chan:
			work = append(work, t.Elem())
		case *types.Map:
			work = append(work, t.Key(), t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					work = append(work, tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					work = append(work, f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					work = append(work, m.Type())
				}
			}
		}
	}
	return reached
}

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
