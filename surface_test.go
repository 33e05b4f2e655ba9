package stinspector

// The exported-surface gate, in two halves.
//
// Package level: every exported func, type, var and const declared in
// a non-test file under internal/ must be referenced from a non-test
// file outside its package, or be listed in surfaceExceptions with one
// of three reasons.
//
// Methods: every exported method declared in a non-test file under
// internal/ must be selected by name (x.Method) in some non-test file,
// or be named by an interface type declared in a non-test file or by a
// standard-library interface (stdMethods); otherwise it is listed in
// methodExceptions with one of two reasons. Matching by name is
// conservative: a method some code calls is never flagged, though a
// dead method that shares a called method's name can escape.
//
// The scan covers the whole tree, the bench/ module and examples/
// included, so an identifier only the benchmark calls counts as used.
//
// To shrink either list: delete an entry, then unexport the identifier
// (or delete it, if nothing in its package uses it either) and run
// `go test -run TestExportedSurface .`. The test also fails on an entry
// that is no longer declared or has gained a user, so the lists can
// only shrink.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
	"dxt.Record":                 namedBySignature, // dxt.ParseSyms and dxt.Stream
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
	"strace.ReadFS":              fakeFSSeam,
	"strace.StreamFS":            fakeFSSeam,
	"strace.TailFS":              fakeFSSeam,
	"strace.TailFile":            fakeFSSeam,
	"strace.Writer":              namedBySignature, // strace.NewWriter returns it
	"workloads.Result":           namedBySignature, // workloads.Checkpoint and friends
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
	"behavior.Profile.Merged": testReference, // render_test.go's refRender
	"dfg.Graph.AddEdge":       testProbe,
	"dfg.Graph.AddNode":       testProbe,
	"dfg.Graph.NodeCount":     testProbe,
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
	declared, used, methods, selected := scanSurface(t, ".")
	var unused []string
	for id := range declared {
		pkg, _, _ := strings.Cut(id, ".")
		if surfaceExempt[pkg] || used[id] {
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
		case reason != namedBySignature && reason != typedFault && reason != fakeFSSeam:
			t.Errorf("surfaceExceptions[%q]: reason %q is not one of the three allowed", id, reason)
		case !declared[id]:
			t.Errorf("surfaceExceptions[%q]: no longer declared; delete the entry", id)
		case used[id]:
			t.Errorf("surfaceExceptions[%q]: now used outside its package; delete the entry", id)
		}
	}
	if len(declared) == 0 {
		t.Fatal("scan found no exported identifiers under internal/")
	}
	t.Logf("%d exported package-level identifiers under internal/, %d listed exceptions", len(declared), len(surfaceExceptions))

	methodUsed := func(id string) bool {
		name := id[strings.LastIndex(id, ".")+1:]
		return selected[name] || stdMethods[name]
	}
	var uncalled []string
	for id := range methods {
		if _, listed := methodExceptions[id]; !listed && !methodUsed(id) {
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
		case !methods[id]:
			t.Errorf("methodExceptions[%q]: no longer declared; delete the entry", id)
		case methodUsed(id):
			t.Errorf("methodExceptions[%q]: now called from non-test code; delete the entry", id)
		}
	}
	if len(methods) == 0 {
		t.Fatal("scan found no exported methods under internal/")
	}
	t.Logf("%d exported methods under internal/, %d listed exceptions", len(methods), len(methodExceptions))
}

// scanSurface parses every Go file under root. It returns the exported
// package-level identifiers declared in non-test files under internal/
// and the ones that non-test files of other packages reference, both
// keyed "<package path under internal/>.<name>"; the exported methods
// declared in non-test files of the packages under internal/ that
// surfaceExempt does not name, keyed "<package path under
// internal/>.<receiver type>.<name>"; and the names that non-test files
// select or declare as interface methods.
func scanSurface(t *testing.T, root string) (declared, used, methods, selected map[string]bool) {
	t.Helper()
	const module = "stinspector"
	type parsed struct {
		pkg  string // import path
		test bool
		f    *ast.File
	}
	fset := token.NewFileSet()
	var files []parsed
	pkgNames := map[string]string{}
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		test := strings.HasSuffix(path, "_test.go")
		files = append(files, parsed{pkg, test, f})
		if !test {
			pkgNames[pkg] = f.Name.Name
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	const internal = module + "/internal/"
	declared, used = map[string]bool{}, map[string]bool{}
	methods, selected = map[string]bool{}, map[string]bool{}
	declare := func(pkg string, id *ast.Ident) {
		if id.IsExported() {
			declared[strings.TrimPrefix(pkg, internal)+"."+id.Name] = true
		}
	}
	for _, p := range files {
		if p.test || !strings.HasPrefix(p.pkg, internal) {
			continue
		}
		for _, d := range p.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				pkg := strings.TrimPrefix(p.pkg, internal)
				switch {
				case d.Recv == nil:
					declare(p.pkg, d.Name)
				case d.Name.IsExported() && !surfaceExempt[pkg]:
					methods[pkg+"."+receiverType(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(p.pkg, s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declare(p.pkg, n)
						}
					}
				}
			}
		}
	}
	for _, p := range files {
		if p.test {
			continue
		}
		imports := map[string]string{} // local name -> import path
		for _, is := range p.f.Imports {
			path := strings.Trim(is.Path.Value, `"`)
			if !strings.HasPrefix(path, internal) || path == p.pkg {
				continue
			}
			name := pkgNames[path]
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = path
		}
		ast.Inspect(p.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if path, ok := imports[x.Name]; ok {
						used[strings.TrimPrefix(path, internal)+"."+n.Sel.Name] = true
					}
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						selected[name.Name] = true
					}
				}
			}
			return true
		})
	}
	return declared, used, methods, selected
}

// receiverType names the type of a method receiver: T for T, *T, T[P]
// and *T[P].
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
